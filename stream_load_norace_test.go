//go:build !race

package adhocga

// loadWallFactor bounds TestStreamLoadThousandsOfSubscribers' loaded run
// at loadWallFactor × bare + 10 s; see stream_load_race_test.go for the
// race detector's bound.
const loadWallFactor = 6
