package pgasbench

// Get-side companions to the put tests: the PGAS Microbenchmark suite the
// paper uses "contains code designed to test the performance and correctness
// for put/get operations" (§V); the paper's figures show the put side, so
// these series are supplementary (used by the caf-level Fig 6/7 harnesses'
// sanity tests and available from cmd/pgas-microbench via the figure code).

// GetLatency measures blocking get latency in µs per size.
func GetLatency(cfg RawPutConfig) (Series, error) {
	return rawSeries(cfg, true, true)
}

// GetBandwidth measures back-to-back get bandwidth in MB/s per size.
func GetBandwidth(cfg RawPutConfig) (Series, error) {
	return rawSeries(cfg, true, false)
}
