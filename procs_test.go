package adhocga

import (
	"runtime"
	"testing"
)

// pinProcs clears any operator GOMAXPROCS setting and starts the test at n
// Ps, restoring the original count afterwards.
func pinProcs(t *testing.T, n int) {
	t.Helper()
	t.Setenv("GOMAXPROCS", "")
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// newClosedSession builds a session with the given options and closes it
// when the test ends.
func newClosedSession(t *testing.T, opts ...SessionOption) *Session {
	t.Helper()
	s := NewSession(opts...)
	t.Cleanup(s.Close)
	return s
}

func TestNewSessionReservesIOProc(t *testing.T) {
	ncpu := runtime.NumCPU()
	for _, tc := range []struct {
		name        string
		start, pool int
		want        int
	}{
		{"pool 1", 1, 1, 2},
		{"pool NumCPU", ncpu, ncpu, ncpu + 1},
		{"pool past NumCPU", 1, ncpu + 3, ncpu + 1},
		{"never lowered", ncpu + 4, 1, ncpu + 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pinProcs(t, tc.start)
			newClosedSession(t, WithPoolSize(tc.pool))
			if got := runtime.GOMAXPROCS(0); got != tc.want {
				t.Fatalf("GOMAXPROCS = %d after NewSession with pool %d from %d, want %d", got, tc.pool, tc.start, tc.want)
			}
		})
	}
}

// TestNewSessionProcsCapped builds default-pool sessions in a row from one
// P. Each default pool is sized from the GOMAXPROCS the previous session
// raised, so only the NumCPU cap stops the ratchet.
func TestNewSessionProcsCapped(t *testing.T) {
	pinProcs(t, 1)
	limit := runtime.NumCPU() + 1
	for i := 0; i < max(50, limit+1); i++ {
		newClosedSession(t)
		if got := runtime.GOMAXPROCS(0); got > limit {
			t.Fatalf("session %d pushed GOMAXPROCS to %d, past NumCPU+1 = %d", i+1, got, limit)
		}
	}
	if got := runtime.GOMAXPROCS(0); got != limit {
		t.Fatalf("GOMAXPROCS settled at %d, want NumCPU+1 = %d", got, limit)
	}
}

// TestNewSessionDefaultPoolKeepsSpareP: from the runtime's default of one
// P per CPU, two default sessions in a row both leave exactly one P beyond
// their pool — the second does not size its pool from the spare P.
func TestNewSessionDefaultPoolKeepsSpareP(t *testing.T) {
	pinProcs(t, runtime.NumCPU())
	for i := 1; i <= 2; i++ {
		s := newClosedSession(t)
		if got, want := runtime.GOMAXPROCS(0), s.PoolSize()+1; got != want {
			t.Fatalf("session %d: GOMAXPROCS = %d, want PoolSize()+1 = %d", i, got, want)
		}
	}
}

func TestNewSessionLeavesOperatorGOMAXPROCS(t *testing.T) {
	pinProcs(t, 1)
	t.Setenv("GOMAXPROCS", "1")
	newClosedSession(t, WithPoolSize(1))
	if got := runtime.GOMAXPROCS(0); got != 1 {
		t.Fatalf("GOMAXPROCS = %d, want the operator's 1 left alone", got)
	}
}
