// Web-scale configuration. The default web is a few hundred hosts / a few
// tens of thousands of pages — enough for unit tests, far from the paper's
// 21M-page crawl. Because every page is a pure function of (config seed,
// URL), scaling the universe costs only host metadata: ScaledConfig
// multiplies the host count and the bench suite crawls a ~1M-page web
// without ever holding it in memory. scale_test.go holds the opposite
// trade — eager materialization of every regular page into a map, compared
// byte-for-byte against lazy rendering to prove the two paths serve the
// same universe.

package synthweb

// ScaledConfig returns the calibrated default web scaled by the given
// factor: factor*DefaultConfig().NumHosts hosts with every share and
// distribution unchanged, so noise and fault rates stay calibrated while
// the page population grows roughly linearly (the default web holds
// ~45 pages/host on average; factor 32 yields a ~1M-page universe).
func ScaledConfig(seed uint64, factor int) Config {
	if factor < 1 {
		factor = 1
	}
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.NumHosts *= factor
	return cfg
}
