//go:build race

package adhocga

// loadWallFactor bounds TestStreamLoadThousandsOfSubscribers' loaded run
// at loadWallFactor × bare + 10 s under the race detector, which makes
// every hub lock and channel operation of the 5,000 subscribers many
// times dearer while the bare run has none to pay. The factor comes from
// 18 -race runs of the test at commit 8c5f0f9 on a 2-vCPU Xeon, measured
// as (loaded − 10 s) / bare: 2.4–4.7 run alone (7 runs), 5.2–8.6 beside a
// second -race test binary, the way `go test -race` runs packages
// (5 runs), and 0.7–9.1 beside builds and a fuzzer (6 runs). Two of the
// 18 broke the non-race factor of 6. 14 is about 1.5× the worst, 9.1. A
// producer serialized behind its subscribers would take far longer, and
// the test's MaxStall check catches any wait on them directly.
const loadWallFactor = 14
