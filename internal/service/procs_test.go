package service

import (
	"runtime"
	"testing"

	"adhocga"
	"adhocga/internal/jobstore"
)

// pinProcs clears any operator GOMAXPROCS setting and starts the test at n
// Ps, restoring the original count afterwards.
func pinProcs(t *testing.T, n int) {
	t.Helper()
	t.Setenv("GOMAXPROCS", "")
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// newServer builds a Server over a fresh session with the given options.
func newServer(t *testing.T, opts ...adhocga.SessionOption) *Server {
	t.Helper()
	sess := adhocga.NewSession(opts...)
	t.Cleanup(sess.Close)
	return New(sess, Options{})
}

func TestNewReservesIOProc(t *testing.T) {
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
			newServer(t, adhocga.WithPoolSize(tc.pool))
			if got := runtime.GOMAXPROCS(0); got != tc.want {
				t.Fatalf("GOMAXPROCS = %d after New with pool %d from %d, want %d", got, tc.pool, tc.start, tc.want)
			}
		})
	}
}

// TestNewProcsCapped builds default-pool servers in a row. Default pools
// are sized from GOMAXPROCS, so an uncapped pool+1 rule would raise it by
// one with every server.
func TestNewProcsCapped(t *testing.T) {
	pinProcs(t, 1)
	limit := runtime.NumCPU() + 1
	for i := 0; i < max(50, limit+1); i++ {
		newServer(t)
		if got := runtime.GOMAXPROCS(0); got > limit {
			t.Fatalf("server %d pushed GOMAXPROCS to %d, past NumCPU+1 = %d", i+1, got, limit)
		}
	}
	if got := runtime.GOMAXPROCS(0); got != limit {
		t.Fatalf("GOMAXPROCS settled at %d, want NumCPU+1 = %d", got, limit)
	}
}

func TestNewLeavesOperatorGOMAXPROCS(t *testing.T) {
	pinProcs(t, 1)
	t.Setenv("GOMAXPROCS", "1")
	newServer(t, adhocga.WithPoolSize(1))
	if got := runtime.GOMAXPROCS(0); got != 1 {
		t.Fatalf("GOMAXPROCS = %d, want the operator's 1 left alone", got)
	}
}

// TestVerifySandboxPoolSize checks that a verify replay's sandbox runs on
// as many slots as the serving pool, not on the raised GOMAXPROCS.
func TestVerifySandboxPoolSize(t *testing.T) {
	pinProcs(t, 1)
	srv := newServer(t, adhocga.WithPoolSize(1))
	if got := runtime.GOMAXPROCS(0); got != 2 {
		t.Fatalf("GOMAXPROCS = %d after New, want 2", got)
	}
	sandbox := srv.newSandbox(jobstore.Record{ID: "job-1", Kind: "scenarios"})
	defer sandbox.Close()
	if got, want := sandbox.PoolSize(), srv.session.PoolSize(); got != want {
		t.Fatalf("sandbox pool = %d, want the serving pool's %d", got, want)
	}
}
