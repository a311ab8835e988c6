package viz

import (
	"fmt"
	"strings"

	"odakit/internal/obs"
)

// MetricsPanel renders an obs registry as a compact terminal panel — the
// operator's at-a-glance complement to the Prometheus /metrics endpoint.
// Counters and gauges print one aligned line each; histograms collapse
// to count and mean rather than spraying buckets across the terminal.
func MetricsPanel(reg *obs.Registry) string {
	samples := reg.Gather()
	var b strings.Builder
	b.WriteString("== Facility metrics ==\n")
	// Histogram families fold into one line from their _sum/_count pair.
	sums, counts := map[string]float64{}, map[string]float64{}
	var lines []string
	for _, s := range samples {
		if s.Kind == obs.KindHistogram {
			fam := s.Family
			if fam == "" {
				fam = s.Name
			}
			if _, seen := sums[fam]; !seen {
				sums[fam] = 0
				lines = append(lines, "\x00"+fam) // placeholder, ordered
			}
			switch {
			case strings.HasPrefix(s.Name, fam+"_sum"):
				sums[fam] += s.Value
			case strings.HasPrefix(s.Name, fam+"_count"):
				counts[fam] += s.Value
			}
			continue
		}
		lines = append(lines, fmt.Sprintf("  %-48s %v", s.Name, trimFloat(s.Value)))
	}
	for _, l := range lines {
		if fam, ok := strings.CutPrefix(l, "\x00"); ok {
			mean := 0.0
			if counts[fam] > 0 {
				mean = sums[fam] / counts[fam]
			}
			fmt.Fprintf(&b, "  %-48s count=%v mean=%.6fs\n", fam, trimFloat(counts[fam]), mean)
			continue
		}
		b.WriteString(l + "\n")
	}
	return b.String()
}

// trimFloat renders integral values without a trailing ".0".
func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
