//go:build race

package adhocga

// loadWallFactor bounds TestStreamLoadThousandsOfSubscribers' loaded run
// at loadWallFactor × bare + 10 s under the race detector, which makes
// every hub lock and wakeup of the 5,000 subscribers many times dearer
// while the bare run has none to pay. The factor comes from 16 -race runs
// of the test on a 2-vCPU Xeon with subscriptions as cursors, measured as
// (loaded − 10 s) / bare: 0.4–1.1 with the test binary alone (6 runs),
// 0.9–1.7 inside the CI race job's `go test -race` over its package set
// (5 runs), 6.6–7.8 beside a fuzzer (2 runs), and 9.3–10.2 beside a
// second -race test binary restarted in a loop for the whole run (3
// runs). That last load is harsher than any CI run: the pump-per-
// subscriber hub this replaced measured 14.9–15.4 under it, past its own
// factor of 14. 12 clears the worst run by 1.2× and a CI-like run by 7×;
// a producer serialized behind its subscribers would take far longer, and
// the test's MaxStall check catches any wait on them directly.
const loadWallFactor = 12
