// The benchmark is its own module so it builds from its own directory
// without touching the root go.mod. Its import path sits under odakit/,
// which is what lets it reach odakit/internal/... through the replace.
module odakit/benchmark

go 1.22

require odakit v0.0.0

replace odakit => ../
