package oda_test

// The repository's shape rules: one STREAM reader, one LAKE read path, one
// serialized form for rollup cells (a CQ checkpoint's included), one
// grouping loop, one windowed fold, one sort, one log, one failure contract, one wait, one
// consumer loop, one entry point per operation, one retry convention, one
// fault seam, no knob nobody turns, one admission decision, one cold scan,
// one parse per segment object, one filter test per series, one chunk
// decoder, one interner, one series encoder, one parameter reader, a
// series and a group that are integers, and one cluster harness. Each is
// a structural fact a later change could quietly undo, so each is checked
// over the parsed sources — the non-test ones, or for a test-shape rule
// the tests — on every `go test ./...`, and each is shown to fire on a
// synthetic source that breaks it.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// srcFile is one parsed non-test Go file; path is slash-separated and
// relative to the repository root.
type srcFile struct {
	path string
	f    *ast.File
}

func anyFile(srcFile) bool { return true }

func isFile(path string) func(srcFile) bool {
	return func(s srcFile) bool { return s.path == path }
}

func within(dirs ...string) func(srcFile) bool {
	return func(s srcFile) bool {
		for _, d := range dirs {
			if strings.HasPrefix(s.path, d+"/") {
				return true
			}
		}
		return false
	}
}

// lastName is the final identifier of x, y.x, z.y.x or *x; "" otherwise.
func lastName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.StarExpr:
		return lastName(e.X)
	}
	return ""
}

// inspect walks every file for which keep holds.
func inspect(files []srcFile, keep func(srcFile) bool, fn func(s srcFile, n ast.Node)) {
	for _, s := range files {
		if keep(s) {
			ast.Inspect(s.f, func(n ast.Node) bool { fn(s, n); return true })
		}
	}
}

// calls visits every call with its final name (f for f(), x.f(), x.y.f()).
func calls(files []srcFile, keep func(srcFile) bool, fn func(s srcFile, c *ast.CallExpr, name string)) {
	inspect(files, keep, func(s srcFile, n ast.Node) {
		if c, ok := n.(*ast.CallExpr); ok {
			fn(s, c, lastName(c.Fun))
		}
	})
}

// callsIn lists, by declaring function ("Recv.Method" or "Func"), the
// final names of the calls its body makes.
func callsIn(files []srcFile, keep func(srcFile) bool) map[string][]string {
	out := map[string][]string{}
	funcs(files, keep, func(_ srcFile, name string, fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				out[name] = append(out[name], lastName(c.Fun))
			}
			return true
		})
	})
	return out
}

// funcName is "Recv.Method" for a method, the name for a function.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		return lastName(fd.Recv.List[0].Type) + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// funcs visits every function the files declare with a body, with its
// funcName.
func funcs(files []srcFile, keep func(srcFile) bool, fn func(s srcFile, name string, fd *ast.FuncDecl)) {
	for _, s := range files {
		if !keep(s) {
			continue
		}
		for _, d := range s.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(s, funcName(fd), fd)
			}
		}
	}
}

// decls lists what the files declare: "func Recv.Method" for a method,
// "func F" for a function, "type T" for a struct type and "T.Field" for
// each of its fields.
func decls(files []srcFile, keep func(srcFile) bool) (out []string) {
	inspect(files, keep, func(_ srcFile, n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			out = append(out, "func "+funcName(n))
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok {
				out = append(out, "type "+n.Name.Name)
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						out = append(out, n.Name.Name+"."+name.Name)
					}
				}
			}
		}
	})
	return out
}

// idents lists every identifier the files use.
func idents(files []srcFile, keep func(srcFile) bool) (out []string) {
	inspect(files, keep, func(_ srcFile, n ast.Node) {
		if id, ok := n.(*ast.Ident); ok {
			out = append(out, id.Name)
		}
	})
	return out
}

// pkgRef returns name when e is name qualified by the file's import of
// path, under whatever local name the file gives it.
func pkgRef(f *ast.File, e ast.Expr, path string) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		local := p[strings.LastIndex(p, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		if p == path && local == id.Name {
			return sel.Sel.Name, true
		}
	}
	return "", false
}

// forbid reports each of got that is banned, with why.
func forbid(got []string, why string, banned ...string) (out []string) {
	for _, g := range got {
		for _, b := range banned {
			if g == b {
				out = append(out, g+": "+why)
			}
		}
	}
	return out
}

// count reports a violation unless exactly one of got is want.
func count(got []string, want, what string) []string {
	n := 0
	for _, g := range got {
		if g == want {
			n++
		}
	}
	if n != 1 {
		return []string{fmt.Sprintf("%d %s, want 1", n, what)}
	}
	return nil
}

// A shapeRule is one structural fact: check lists its violations in the
// non-test sources (the _test.go sources when tests is set), breaks is a
// synthetic source tree (path → source) that it must reject.
type shapeRule struct {
	name   string
	tests  bool
	check  func(files []srcFile) []string
	breaks map[string]string
}

var shapeRules = []shapeRule{
	{
		name: "one reader: STREAM is read through plane.Reader",
		check: func(files []srcFile) (out []string) {
			planes := within("internal/plane", "internal/stream", "internal/cluster", "benchmark")
			calls(files, func(s srcFile) bool { return !planes(s) }, func(s srcFile, _ *ast.CallExpr, name string) {
				if name == "FetchNoWait" || name == "AppendRecords" {
					out = append(out, s.path+": a hand-rolled fetch loop; read through plane.Reader")
				}
			})
			return out
		},
		breaks: map[string]string{"internal/core/replay.go": `package core
func replay(s S) { s.FetchNoWait("bronze", 0, 0, 64) }`},
	},
	{
		name: "one read path: internal/httpapi runs the backend in serveQuery alone",
		check: func(files []srcFile) []string {
			var sites []string
			calls(files, within("internal/httpapi"), func(_ srcFile, c *ast.CallExpr, name string) {
				if sel, ok := c.Fun.(*ast.SelectorExpr); ok && name == "RunWithStats" {
					sites = append(sites, lastName(sel.X))
				}
			})
			return count(sites, "backend", "backend.RunWithStats call sites in internal/httpapi (serveQuery)")
		},
		breaks: map[string]string{"internal/httpapi/httpapi.go": `package httpapi
func (s *Server) serveQuery() { s.backend.RunWithStats(q) }
func (s *Server) topN() { s.backend.RunWithStats(q) }`},
	},
	{
		name: "one read path: top-N is a query, not a method",
		check: func(files []srcFile) (out []string) {
			for _, d := range decls(files, anyFile) {
				if strings.HasPrefix(d, "func ") && strings.HasSuffix(d, ".TopN") {
					out = append(out, d+": top-N is tsdb.TopN over RunWithStats")
				}
			}
			return out
		},
		breaks: map[string]string{"internal/cluster/lake.go": "package cluster\nfunc (c *Cluster) TopN() {}"},
	},
	{
		name: "one cell format: RollupSchema, ImportRollups and DB.Export stay deleted",
		check: func(files []srcFile) []string {
			out := forbid(idents(files, anyFile), "rollup cells serialize as ColdSchema", "RollupSchema", "ImportRollups")
			return append(out, forbid(decls(files, within("internal/tsdb")), "use ExportStripes", "func DB.Export")...)
		},
		breaks: map[string]string{"internal/tsdb/export.go": "package tsdb\nfunc (db *DB) Export() {}"},
	},
	{
		name: "one cell format: only tsdb's cellColumns builds a ColdSchema frame",
		check: func(files []srcFile) (out []string) {
			calls(files, anyFile, func(s srcFile, c *ast.CallExpr, name string) {
				if name == "FrameOfColumns" && len(c.Args) > 0 && lastName(c.Args[0]) == "ColdSchema" && s.path != "internal/tsdb/tier.go" {
					out = append(out, s.path+": build ColdSchema frames with tsdb's cellColumns")
				}
			})
			return out
		},
		breaks: map[string]string{"internal/tsdb/stripe.go": "package tsdb\nfunc frame() { schema.FrameOfColumns(ColdSchema, cols) }"},
	},
	{
		name: "one cell format: a CQ checkpoint stores its cells through tsdb",
		check: func(files []srcFile) (out []string) {
			for _, d := range decls(files, within("internal/cq")) {
				if strings.HasPrefix(d, "func ") || strings.HasPrefix(d, "type ") {
					continue
				}
				switch field := d[strings.Index(d, ".")+1:]; field {
				case "Count", "Sum", "Min", "Max", "Last", "LastTs":
					out = append(out, d+": a cell serializes as ColdSchema, through tsdb.CellExport")
				}
			}
			calls(files, within("internal/cq"), func(s srcFile, _ *ast.CallExpr, name string) {
				if name == "At" {
					out = append(out, s.path+": At: a view's tables are exported whole by tsdb.CellExport, not walked cell by cell")
				}
			})
			return out
		},
		breaks: map[string]string{"internal/cq/checkpoint.go": `package cq
type ckptCell struct{ Ts int64; Sum, Min, Max uint64 }
func snapshot(ct *tsdb.CellTable) { k, c := ct.At(0) }`},
	},
	{
		name: "one grouping loop: sproc declares one group struct",
		check: func(files []srcFile) []string {
			return count(decls(files, within("internal/sproc")), "type group", "'type group struct' in internal/sproc (relational.go)")
		},
		breaks: map[string]string{
			"internal/sproc/relational.go": "package sproc\ntype group struct{}",
			"internal/sproc/job.go":        "package sproc\ntype group struct{}",
		},
	},
	{
		name: "one windowed fold: tsdb declares the one aggregation state",
		check: func(files []srcFile) (out []string) {
			// An aggregation state is a struct that accumulates a count and
			// a sum, as tsdb.Cell does.
			fields := map[string]map[string]bool{}
			for _, d := range decls(files, func(s srcFile) bool { return !within("internal/tsdb")(s) }) {
				if typ, field, ok := strings.Cut(d, "."); ok && !strings.HasPrefix(d, "func ") {
					if fields[typ] == nil {
						fields[typ] = map[string]bool{}
					}
					fields[typ][strings.ToLower(field)] = true
				}
			}
			for typ, fs := range fields {
				if fs["count"] && fs["sum"] {
					out = append(out, typ+": an aggregation state outside internal/tsdb; fold into tsdb.Cell")
				}
			}
			return append(out, forbid(idents(files, within("internal/sproc")), "a job's windows are a CQ view's chunks", "WindowSpec", "winState")...)
		},
		breaks: map[string]string{
			"internal/sproc/relational.go": "package sproc\ntype aggState struct{ count int64; sum, min, max float64 }",
			"internal/sproc/job.go":        "package sproc\ntype WindowSpec struct{}\ntype Job struct{ winState map[int64]int }",
		},
	},
	{
		name: "one sort: sql.go's ORDER BY is Frame.SortBy",
		check: func(files []srcFile) []string {
			var sorts []string
			calls(files, isFile("internal/sproc/sql.go"), func(s srcFile, c *ast.CallExpr, name string) {
				fn, fromSort := pkgRef(s.f, c.Fun, "sort")
				switch {
				case fromSort && ast.IsExported(fn):
					sorts = append(sorts, "sort."+fn)
				case name == "SortBy", name == "sortByTerms", name == "SortFunc", name == "SortStableFunc":
					sorts = append(sorts, name)
				}
			})
			if len(sorts) != 1 || sorts[0] != "SortBy" {
				return []string{fmt.Sprintf("sort calls in sql.go %v, want the one SortBy", sorts)}
			}
			return nil
		},
		breaks: map[string]string{"internal/sproc/sql.go": `package sproc
func order() { slices.SortStableFunc(perm, less) }`},
	},
	{
		name: "one log: stream.TopicConfig is {Partitions, RetentionBytes}",
		check: func(files []srcFile) []string {
			return forbid(decls(files, within("internal/stream")), "a log is append-only and trimmed by bytes",
				"TopicConfig.Compacted", "TopicConfig.CompactEvery", "TopicConfig.RetentionAge")
		},
		breaks: map[string]string{"internal/stream/broker.go": "package stream\ntype TopicConfig struct{ Partitions int; Compacted bool }"},
	},
	{
		name: "one log: a record is a PublishBatch of one",
		check: func(files []srcFile) []string {
			out := forbid(decls(files, within("internal/stream")), "publish through PublishBatch / PublishBatchTo",
				"func Broker.Publish", "func Broker.PublishTo", "func Broker.SetClock")
			return append(out, forbid(decls(files, within("internal/cluster")), "the cluster publishes through PublishBatch",
				"func Cluster.Publish")...)
		},
		breaks: map[string]string{"internal/cluster/publish.go": "package cluster\nfunc (c *Cluster) Publish() {}"},
	},
	{
		name: "one failure contract: a failed publish leaves nothing for a retry to match",
		check: func(files []srcFile) []string {
			return forbid(decls(files, within("internal/cluster")),
				"replicas cut what no quorum committed, so a retry of Failed is just a publish",
				"type staged", "partitionState.inflight", "partBatch.fp", "func fingerprintMsgs")
		},
		breaks: map[string]string{"internal/cluster/publish.go": `package cluster
type partBatch struct{ fp uint64 }
func fingerprintMsgs(msgs []Message) uint64 { return 0 }`},
	},
	{
		name: "one wait: internal/plane runs on no clock",
		check: func(files []srcFile) (out []string) {
			inspect(files, within("internal/plane"), func(s srcFile, n ast.Node) {
				if e, ok := n.(ast.Expr); ok {
					switch name, _ := pkgRef(s.f, e, "time"); name {
					case "NewTimer", "After", "Sleep", "NewTicker":
						out = append(out, s.path+": time."+name+": a reader parks on Stream.Ready")
					}
				}
			})
			return out
		},
		breaks: map[string]string{"internal/plane/reader.go": `package plane
import clock "time"
func (r *Reader) Wait() { <-clock.After(idle) }`},
	},
	{
		name: "one wait: a broker read is FetchNoWait, its wait Ready",
		check: func(files []srcFile) []string {
			return forbid(decls(files, within("internal/stream")), "read with FetchNoWait, park on Ready",
				"func Broker.Fetch", "func partition.fetch")
		},
		breaks: map[string]string{"internal/stream/partition.go": "package stream\nfunc (p *partition) fetch() {}"},
	},
	{
		name: "one wait: a Silver job parks on commits, not on a poll timer",
		check: func(files []srcFile) []string {
			return forbid(decls(files, within("internal/sproc")), "the job waits on Stream.Ready", "JobConfig.PollWait")
		},
		breaks: map[string]string{"internal/sproc/job.go": "package sproc\ntype JobConfig struct{ PollWait Duration }"},
	},
	{
		name: "one consumer loop: only internal/plane parks a Reader",
		check: func(files []srcFile) (out []string) {
			calls(files, func(s srcFile) bool { return !within("internal/plane")(s) }, func(s srcFile, c *ast.CallExpr, name string) {
				if name == "Wait" && len(c.Args) > 0 { // Reader.Wait(ctx); sync's Waits take no argument
					out = append(out, s.path+": Reader.Wait: a consumer parks through plane.Loop")
				}
			})
			return out
		},
		breaks: map[string]string{"internal/cq/pump.go": `package cq
func (p *Pump) run(ctx context.Context) error { return p.reader.Wait(ctx) }`},
	},
	{
		name: "one consumer loop: cq and sproc leave the checkpoint file to plane.Loop",
		check: func(files []srcFile) (out []string) {
			calls(files, within("internal/cq", "internal/sproc"), func(s srcFile, c *ast.CallExpr, _ string) {
				if fn, ok := pkgRef(s.f, c.Fun, "odakit/internal/atomicfile"); ok {
					out = append(out, s.path+": atomicfile."+fn+": an operator returns its snapshot, the loop writes it")
				}
			})
			return out
		},
		breaks: map[string]string{"internal/sproc/checkpoint.go": `package sproc
import af "odakit/internal/atomicfile"
func (j *Job) checkpoint() error { return af.WriteFile(path, data, 0o644) }`},
	},
	{
		name: "one consumer loop: a pass is applied page by page, not collected",
		check: func(files []srcFile) []string {
			return forbid(decls(files, anyFile), "an operator applies each page as Reader.Poll delivers it", "func Reader.Collect")
		},
		breaks: map[string]string{"internal/plane/reader.go": "package plane\nfunc (r *Reader) Collect() {}"},
	},
	{
		name: "one entry point: the LAKE is written through InsertBatch",
		check: func(files []srcFile) []string {
			return forbid(decls(files, within("internal/tsdb")), "an observation is an InsertBatch of one",
				"func DB.Insert", "func DB.InsertRow")
		},
		breaks: map[string]string{"internal/tsdb/tsdb.go": "package tsdb\nfunc (db *DB) Insert(o schema.Observation) {}"},
	},
	{
		name: "one entry point: a facility operation takes the caller's ctx",
		check: func(files []srcFile) []string {
			return forbid(decls(files, within("internal/core")), "call IngestWindow / BuildGold / ReadSilver with a ctx",
				"func Facility.IngestWindowContext", "func Facility.BuildGoldContext", "func Facility.ReadSilverColumns", "func Facility.readSilver")
		},
		breaks: map[string]string{"internal/core/pipeline.go": "package core\nfunc (f *Facility) ReadSilverColumns() {}"},
	},
	{
		name: "one entry point: one seam per decision",
		check: func(files []srcFile) []string {
			return forbid(decls(files, within("internal/resilience")), "the clock is SupervisorConfig.Clock",
				"func Supervisor.SetClock")
		},
		breaks: map[string]string{"internal/resilience/supervisor.go": "package resilience\nfunc (s *Supervisor) SetClock() {}"},
	},
	{
		name: "one retry convention: no *resilience.Policy field in internal/",
		check: func(files []srcFile) (out []string) {
			inspect(files, within("internal"), func(s srcFile, n ast.Node) {
				st, ok := n.(*ast.StructType)
				if !ok {
					return
				}
				for _, fl := range st.Fields.List {
					star, ok := fl.Type.(*ast.StarExpr)
					if !ok {
						continue
					}
					name, ok := pkgRef(s.f, star.X, "odakit/internal/resilience")
					if !ok && within("internal/resilience")(s) {
						name = lastName(star.X)
					}
					if name == "Policy" {
						out = append(out, fmt.Sprintf("%s: field %v is a *resilience.Policy: hold a Policy value, the zero value means the defaults",
							s.path, fl.Names))
					}
				}
			})
			return out
		},
		breaks: map[string]string{"internal/sproc/job.go": `package sproc
import "odakit/internal/resilience"
type JobConfig struct{ Retry *resilience.Policy }`},
	},
	{
		name: "one fault seam: a surface holds a faults.Hook and fires it with a faults op",
		check: func(files []srcFile) (out []string) {
			seam := func(s srcFile) bool { return within("internal")(s) && !within("internal/faults")(s) }
			why := "hold a faults.Hook, fire it with an op constant from internal/faults"
			inspect(files, seam, func(s srcFile, n ast.Node) {
				switch n := n.(type) {
				case *ast.StructType:
					for _, fl := range n.Fields.List {
						if isHookFunc(fl.Type) {
							out = append(out, fmt.Sprintf("%s: field %v is a func(op, target string) error: %s", s.path, fl.Names, why))
						}
					}
				case *ast.ValueSpec:
					if n.Type != nil && isHookFunc(n.Type) {
						out = append(out, fmt.Sprintf("%s: var %v is a func(op, target string) error: %s", s.path, n.Names, why))
					}
				case *ast.CallExpr:
					if lastName(n.Fun) != "Fire" || len(n.Args) == 0 {
						return
					}
					if lit, ok := n.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						out = append(out, s.path+": Fire("+lit.Value+"): "+why)
					}
				}
			})
			funcs(files, seam, func(s srcFile, name string, fd *ast.FuncDecl) {
				if fd.Recv != nil && (fd.Name.Name == "fault" || fd.Name.Name == "faultLocked") {
					out = append(out, s.path+": func "+name+": "+why)
				}
			})
			return out
		},
		breaks: map[string]string{"internal/objstore/store.go": `package objstore
type Store struct {
	mu        sync.RWMutex
	faultHook func(op, target string) error
}
func (s *Store) faultLocked(op, bucketName, key string) error {
	if s.faultHook == nil {
		return nil
	}
	return s.faultHook(op, bucketName+"/"+key)
}
func (s *Store) Get(bucketName, key string) error { return s.faults.Fire("store.get", bucketName+"/"+key) }`},
	},
	{
		name: "no knob nobody turns: the removed config fields stay deleted",
		check: func(files []srcFile) (out []string) {
			for _, k := range removedKnobs {
				out = append(out, forbid(decls(files, within(k[0])), "nothing set it, or it took one value", k[1])...)
			}
			return out
		},
		breaks: map[string]string{
			"internal/cluster/cluster.go": "package cluster\ntype Config struct{ Clock func() time.Time }",
			"internal/cq/pump.go":         "package cq\ntype PumpConfig struct{ Name string }",
			"internal/columnar/writer.go": "package columnar\ntype WriterOptions struct{ FlateLevel int }",
			"internal/sproc/job.go":       "package sproc\ntype JobConfig struct{ BatchSize int }",
			"internal/gateway/gateway.go": "package gateway\ntype TenantConfig struct{ ScanBurst float64 }",
			"internal/core/pipeline.go":   "package core\ntype SilverPipelineConfig struct{ Retry *resilience.Policy }",
			"internal/tsdb/tier.go":       "package tsdb\ntype ColdTierConfig struct{ Now func() time.Time }",
		},
	},
	{
		name: "one admission decision: httpapi reads no engine load",
		check: func(files []srcFile) []string {
			httpapi := within("internal/httpapi")
			why := "overload is the gateway's full queue; httpapi answers what it marks shed (gateway.Shed)"
			return append(forbid(idents(files, httpapi), why, "ScanLoad", "ScanSlotCap"),
				forbid(decls(files, httpapi), why, "func Server.SetOverloadCheck")...)
		},
		breaks: map[string]string{"internal/httpapi/httpapi.go": `package httpapi
type lakeEngine interface{ ScanLoad() float64 }
func (s *Server) overloaded() bool { return s.f.Lake.ScanSlotCap() == 0 }`},
	},
	{
		name: "one cold scan: tsdb folds cold rows from the scan's vectors",
		check: func(files []srcFile) (out []string) {
			calls(files, within("internal/tsdb"), func(s srcFile, _ *ast.CallExpr, name string) {
				switch name {
				case "ScanColumns", "Gather", "AppendFrame":
					out = append(out, s.path+": "+name+": scan into a columnar.Batch and fold through its selection")
				}
			})
			return out
		},
		breaks: map[string]string{"internal/tsdb/tier.go": "package tsdb\nfunc scan() { fr.ScanColumns(cols) }"},
	},
	{
		name: "one cold scan: internal/columnar has one row-group loop, FileReader.ScanInto",
		check: func(files []srcFile) (out []string) {
			byFunc := callsIn(files, within("internal/columnar"))
			var loops []string
			for fn, names := range byFunc {
				if slices.Contains(names, "matches") {
					loops = append(loops, fn)
				}
			}
			slices.Sort(loops)
			if !slices.Equal(loops, []string{"FileReader.ScanInto"}) {
				out = append(out, fmt.Sprintf("row groups are selected (Predicate.matches) in %v, want FileReader.ScanInto alone", loops))
			}
			if !slices.Contains(byFunc["FileReader.ScanColumns"], "ScanInto") {
				out = append(out, "FileReader.ScanColumns does not call ScanInto")
			}
			return out
		},
		breaks: map[string]string{"internal/columnar/reader.go": `package columnar
func (fr *FileReader) ScanInto(b *Batch) { for _, g := range fr.groups { p.matches(fr.sch, g) } }
func (fr *FileReader) ScanColumns() { for _, g := range fr.groups { p.matches(fr.sch, g) } }`},
	},
	{
		name: "one parse per segment: internal/tsdb binds a kept columnar.Index",
		check: func(files []srcFile) (out []string) {
			calls(files, within("internal/tsdb"), func(s srcFile, _ *ast.CallExpr, name string) {
				if name == "NewFileReader" {
					out = append(out, s.path+": NewFileReader re-parses a segment object per query: bind the segment's kept index")
				}
			})
			return out
		},
		breaks: map[string]string{"internal/tsdb/tier.go": "package tsdb\nfunc open(data []byte) { columnar.NewFileReader(data) }"},
	},
	{
		name: "one filter test per series: GroupTable.Fold memoizes each series' admission and group",
		check: func(files []srcFile) (out []string) {
			// A GroupTable method may test filters only on a memo miss:
			// inside the body of an `if x == 0` on the per-series memo.
			found := false
			funcs(files, within("internal/tsdb"), func(s srcFile, name string, fd *ast.FuncDecl) {
				if !strings.HasPrefix(name, "GroupTable.") {
					return
				}
				var misses []*ast.BlockStmt
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if is, ok := n.(*ast.IfStmt); ok {
						if c, ok := is.Cond.(*ast.BinaryExpr); ok && c.Op == token.EQL {
							if lit, ok := c.Y.(*ast.BasicLit); ok && lit.Value == "0" {
								misses = append(misses, is.Body)
							}
						}
					}
					if c, ok := n.(*ast.CallExpr); ok && lastName(c.Fun) == "Match" {
						found = true
						if !slices.ContainsFunc(misses, func(b *ast.BlockStmt) bool { return b.Pos() <= c.Pos() && c.End() <= b.End() }) {
							out = append(out, s.path+": "+name+" calls Match outside its memo's miss branch: test the filters once per series and memoize the answer by series id")
						}
					}
					return true
				})
			})
			if !found && len(out) == 0 {
				out = append(out, "no GroupTable method calls Match: the hot fold's filter test moved, so move this rule with it")
			}
			return out
		},
		breaks: map[string]string{"internal/tsdb/kernel.go": `package tsdb
func (t *GroupTable) fold(p *Plan, g *grid, dict []Series, gids []uint32, keys []Key) {
	for i := range keys {
		if g := gids[keys[i].Series]; g == 0 {
			gids[keys[i].Series] = 1
		}
		if p.Match(&dict[keys[i].Series]) {
			t.accumulate(p, g.origin+int64(keys[i].Bucket)*g.width, gids[keys[i].Series], nil)
		}
	}
}`},
	},
	{
		name: "one chunk decoder: decodeStringBlock is the only parser of a string chunk",
		check: func(files []srcFile) (out []string) {
			columnar := within("internal/columnar")
			for _, s := range files {
				for _, imp := range s.f.Imports {
					if columnar(s) && imp.Path.Value == `"bufio"` {
						out = append(out, s.path+": imports bufio: a chunk is read whole, by decodeColumn")
					}
				}
			}
			out = append(out, forbid(decls(files, columnar), "predicates filter decodeColumn's vectors",
				"func FileReader.stringEqKeep", "func wantSet")...)
			funcs(files, columnar, func(s srcFile, name string, fd *ast.FuncDecl) {
				if name == "appendStringBlock" || name == "decodeStringBlock" {
					return
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && (id.Name == "strDict" || id.Name == "strPlain" || id.Name == "strRuns") {
						out = append(out, s.path+": "+name+" reads the string block layout ("+id.Name+")")
					}
					return true
				})
			})
			return out
		},
		breaks: map[string]string{"internal/columnar/reader.go": `package columnar
import "bufio"
func (fr *FileReader) stringEqKeep(br *bufio.Reader) { if mode == strDict {} }`},
	},
	{
		name: "one series encoder: internal/httpapi appends series points, it reflects none",
		check: func(files []srcFile) (out []string) {
			return forbid(decls(files, within("internal/httpapi")), "encode a series through seriesEncoder",
				"type seriesPoint", "func framePoints")
		},
		breaks: map[string]string{"internal/httpapi/httpapi.go": `package httpapi
type seriesPoint struct{ Value *float64 }
func framePoints(frame *schema.Frame) []seriesPoint { return nil }`},
	},
	{
		name: "one interner: internal/columnar interns through schema.Interner",
		check: func(files []srcFile) (out []string) {
			inspect(files, within("internal/columnar"), func(s srcFile, n ast.Node) {
				if m, ok := n.(*ast.MapType); ok && lastName(m.Key) == "string" && lastName(m.Value) == "string" {
					out = append(out, s.path+": map[string]string: intern with schema.Interner")
				}
			})
			return out
		},
		breaks: map[string]string{"internal/columnar/encoding.go": "package columnar\ntype decodeScratch struct{ interned map[string]string }"},
	},
	{
		name: "one parameter reader: internal/httpapi reads query parameters through uniqueParam",
		check: func(files []srcFile) (out []string) {
			funcs(files, within("internal/httpapi"), func(s srcFile, name string, fd *ast.FuncDecl) {
				// The names this function binds to a url.Values: r.URL.Query()
				// results and url.Values parameters.
				values := map[string]bool{}
				isQuery := func(e ast.Expr) bool {
					c, ok := e.(*ast.CallExpr)
					return ok && lastName(c.Fun) == "Query" && len(c.Args) == 0
				}
				for _, p := range fd.Type.Params.List {
					if typ, ok := pkgRef(s.f, p.Type, "net/url"); ok && typ == "Values" {
						for _, id := range p.Names {
							values[id.Name] = true
						}
					}
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if a, ok := n.(*ast.AssignStmt); ok && len(a.Lhs) == len(a.Rhs) {
						for i, r := range a.Rhs {
							if id, ok := a.Lhs[i].(*ast.Ident); ok && isQuery(r) {
								values[id.Name] = true
							}
						}
					}
					return true
				})
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					c, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Get" {
						if id, ok := sel.X.(*ast.Ident); isQuery(sel.X) || ok && values[id.Name] {
							out = append(out, s.path+": "+name+": url.Values.Get takes the first of conflicting duplicates; use uniqueParam")
						}
					}
					return true
				})
			})
			return out
		},
		breaks: map[string]string{
			"internal/httpapi/prepared.go": `package httpapi
func (s *Server) preparedRun(r *http.Request) { _ = r.URL.Query().Get("prep") }`,
			"internal/httpapi/cq.go": `package httpapi
import "net/url"
func (s *Server) cqLongPoll(r *http.Request) { q := r.URL.Query(); _ = q.Get("gen") }
func wait(q url.Values) string { return q.Get("wait") }`,
		},
	},
	{
		name: "a series is an integer: tsdb.Key is two 32-bit integers",
		check: func(files []srcFile) (out []string) {
			found := false
			inspect(files, within("internal/tsdb"), func(s srcFile, n ast.Node) {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != "Key" {
					return
				}
				found = true
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields.NumFields() != 2 {
					out = append(out, s.path+": tsdb.Key is not a struct of two fields: a key is a bucket ordinal and a series id")
					return
				}
				for _, fl := range st.Fields.List {
					if id, ok := fl.Type.(*ast.Ident); !ok || id.Name != "uint32" && id.Name != "int32" {
						out = append(out, fmt.Sprintf("%s: tsdb.Key field %v is %s: a key is two 32-bit integers — the bucket's ordinal on its table's grid and a series id",
							s.path, fl.Names, exprString(fl.Type)))
					}
				}
			})
			if !found {
				out = append(out, "no type Key in internal/tsdb")
			}
			return out
		},
		breaks: map[string]string{"internal/tsdb/kernel.go": `package tsdb
type Key struct {
	Ts     int64
	Series uint32
}`},
	},
	{
		name: "a cell is found by arithmetic: CellTable keeps no cell probe index",
		check: func(files []srcFile) (out []string) {
			tsdb := within("internal/tsdb")
			out = forbid(decls(files, tsdb), "a cell's place is its bucket's ordinal on the table's grid, through its series' run",
				"func cellHash", "func CellTable.probe", "CellTable.index")
			// An open-addressed index is a slice of entries carrying a hash.
			hashed := map[string]bool{}
			inspect(files, tsdb, func(_ srcFile, n ast.Node) {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if st, ok := ts.Type.(*ast.StructType); ok {
						for _, fl := range st.Fields.List {
							for _, name := range fl.Names {
								hashed[ts.Name.Name] = hashed[ts.Name.Name] || name.Name == "hash"
							}
						}
					}
				}
			})
			inspect(files, tsdb, func(s srcFile, n ast.Node) {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != "CellTable" {
					return
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return
				}
				for _, fl := range st.Fields.List {
					if at, ok := fl.Type.(*ast.ArrayType); ok && hashed[lastName(at.Elt)] {
						out = append(out, fmt.Sprintf("%s: CellTable field %v is a probe index (%s)", s.path, fl.Names, exprString(fl.Type)))
					}
				}
			})
			return out
		},
		breaks: map[string]string{"internal/tsdb/kernel.go": `package tsdb
type slot struct{ hash uint32; idx int32 }
type CellTable struct {
	cells []slot
	n     int
}
func cellHash(seriesH uint32, bucketN int64) uint32 { return seriesH }`},
	},
	{
		name: "a series is an integer: no Key is built from dimension strings",
		check: func(files []srcFile) (out []string) {
			inspect(files, anyFile, func(s srcFile, n ast.Node) {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return
				}
				if name, ok := pkgRef(s.f, lit.Type, "odakit/internal/tsdb"); !ok || name != "Key" {
					if id, ok := lit.Type.(*ast.Ident); !ok || id.Name != "Key" || !within("internal/tsdb")(s) {
						return
					}
				}
				for _, e := range lit.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						switch lastName(kv.Key) {
						case "System", "Source", "Component", "Metric":
							out = append(out, s.path+": a Key literal with "+lastName(kv.Key)+": intern the series through CellTable.Cell")
						}
					}
				}
			})
			return out
		},
		breaks: map[string]string{
			"internal/cq/view.go": `package cq
import "odakit/internal/tsdb"
func apply(o *Obs) { _ = tsdb.Key{Ts: o.Ts, Component: o.Component, Metric: o.Metric} }`,
			"internal/tsdb/tsdb.go": `package tsdb
func insert(o *Obs) { _ = Key{Ts: o.Ts, System: o.System} }`,
		},
	},
	{
		name: "a group is an integer: the GroupTable slot key holds no string, pointer or slice",
		check: func(files []srcFile) (out []string) {
			found := false
			inspect(files, within("internal/tsdb"), func(s srcFile, n ast.Node) {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != "groupSlot" {
					return
				}
				found = true
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					out = append(out, s.path+": groupSlot is not a struct")
					return
				}
				for _, fl := range st.Fields.List {
					if id, ok := fl.Type.(*ast.Ident); !ok || !integerTypes[id.Name] && id.Name != "bool" && id.Name != "Cell" {
						out = append(out, fmt.Sprintf("%s: groupSlot field %v is %s: a group is a bucket and a group id, its strings live in the table's dictionary",
							s.path, fl.Names, exprString(fl.Type)))
					}
				}
			})
			if !found {
				out = append(out, "no type groupSlot in internal/tsdb")
			}
			return out
		},
		breaks: map[string]string{"internal/tsdb/kernel.go": `package tsdb
type groupSlot struct {
	hash uint32
	used bool
	Key  GroupKey
	dims *[4]string
	Cell Cell
}`},
	},
	{
		name: "a group is an integer: FoldColumns builds no Series per row",
		check: func(files []srcFile) (out []string) {
			tsdb := within("internal/tsdb")
			out = forbid(decls(files, tsdb), "a cold row reaches its group through its codes (rowTuples.number)", "func Columns.series")
			funcs(files, tsdb, func(s srcFile, name string, fd *ast.FuncDecl) {
				if name != "GroupTable.FoldColumns" {
					return
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.CompositeLit); ok && lastName(lit.Type) == "Series" {
						out = append(out, s.path+": FoldColumns builds a Series per row: resolve the row's tuple id through the memo")
					}
					return true
				})
			})
			return out
		},
		breaks: map[string]string{"internal/tsdb/kernel.go": `package tsdb
func (c *Columns) series(r int32) (s Series) { return s }
func (t *GroupTable) FoldColumns(p *Plan, cols *Columns, rt *rowTuples, order []int32) {
	for _, r := range order {
		s := Series{Metric: cols.Dims[3][r]}
		t.accumulate(p, cols.Bucket[r], &s)
	}
}`},
	},
	{
		name:  "one cluster harness: internal/cluster's tests make a cluster only in build",
		tests: true,
		check: func(files []srcFile) (out []string) {
			for _, s := range files {
				if !within("internal/cluster")(s) {
					continue
				}
				for _, d := range s.f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "build" {
						continue
					}
					ast.Inspect(d, func(n ast.Node) bool {
						if c, ok := n.(*ast.CallExpr); ok {
							if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "New" {
								out = append(out, s.path+": a New call outside build: build the cluster through the one harness")
							}
						}
						return true
					})
				}
			}
			return out
		},
		breaks: map[string]string{"internal/cluster/wal_test.go": `package cluster
func testClusterWAL(t *testing.T) *Cluster { c, _ := New(ids, Config{WALDir: t.TempDir()}); return c }`},
	},
}

// removedKnobs are config fields, by package directory, that nothing set
// or that only ever took one value.
var removedKnobs = [][2]string{
	{"internal/cluster", "Config.Clock"},
	{"internal/cq", "PumpConfig.Name"},
	{"internal/columnar", "WriterOptions.FlateLevel"},
	{"internal/sproc", "JobConfig.BatchSize"},
	{"internal/gateway", "TenantConfig.ScanBurst"},
	{"internal/core", "SilverPipelineConfig.Retry"},
	{"internal/tsdb", "ColdTierConfig.Now"},
}

// isHookFunc reports whether e is the fault hook's type,
// func(string, string) error.
func isHookFunc(e ast.Expr) bool {
	ft, ok := e.(*ast.FuncType)
	if !ok || ft.Results == nil || len(ft.Results.List) != 1 || lastName(ft.Results.List[0].Type) != "error" {
		return false
	}
	n := 0
	for _, p := range ft.Params.List {
		if lastName(p.Type) != "string" {
			return false
		}
		n += max(1, len(p.Names))
	}
	return n == 2
}

// integerTypes are the field types a pointer-free, fixed-width key may use.
var integerTypes = map[string]bool{
	"int8": true, "int16": true, "int32": true, "int64": true,
	"uint8": true, "uint16": true, "uint32": true, "uint64": true,
}

// exprString renders a type expression for a violation message.
func exprString(e ast.Expr) string {
	var b strings.Builder
	if err := printer.Fprint(&b, token.NewFileSet(), e); err != nil {
		return fmt.Sprintf("%T", e)
	}
	return b.String()
}

// repoSources parses every non-test Go file of the repository, the
// separate benchmark module included — or, with tests, every _test.go
// file.
func repoSources(t *testing.T, tests bool) []srcFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []srcFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, srcFile{path: filepath.ToSlash(path), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestRepositoryShape(t *testing.T) {
	files, tests := repoSources(t, false), repoSources(t, true)
	if len(files) < 100 || len(tests) < 100 {
		t.Fatalf("parsed %d Go files and %d tests; run from the repository root", len(files), len(tests))
	}
	for _, r := range shapeRules {
		src := files
		if r.tests {
			src = tests
		}
		for _, v := range r.check(src) {
			t.Errorf("%s: %s", r.name, v)
		}
	}
}

func TestShapeRulesFire(t *testing.T) {
	fset := token.NewFileSet()
	for _, r := range shapeRules {
		var files []srcFile
		for path, src := range r.breaks {
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("%s: synthetic %s: %v", r.name, path, err)
			}
			files = append(files, srcFile{path: path, f: f})
		}
		if len(r.check(files)) == 0 {
			t.Errorf("%s: passes a synthetic source that breaks it", r.name)
		}
	}
}
