// Package experiments regenerates every table and figure in the
// paper's evaluation (section 5), plus the validation of section 5.1
// and ablations for the design choices discussed in sections 3.5 and
// 7. Beyond the paper it measures the scale-out subsystems the
// ROADMAP grew: NymVault incremental checkpoints (VaultIncremental),
// single-host fleet ramps (FleetRampUp), multi-host sharding with
// live migration (FleetShards), and elastic autoscaling with
// priority-class admission (Elastic). Each generator builds a fresh
// deterministic world from a seed and returns typed rows; Render*
// helpers print them in the paper's layout. Registry names every
// experiment with one run-and-render entry; cmd/nymbench loops over
// it and bench_test.go runs each entry as a testing.B sub-benchmark.
// Registry is also the golden index: TestGoldenExperiments runs every
// entry twice at once at seed 1 and compares both results with
// testdata/<name>.json.
package experiments
