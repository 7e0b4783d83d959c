package service

import (
	"testing"

	"adhocga"
	"adhocga/internal/jobstore"
)

// TestVerifySandboxPoolSize checks that a verify replay's sandbox runs on
// as many slots as the serving pool, not on a default pool sized from the
// GOMAXPROCS the serving session raised.
func TestVerifySandboxPoolSize(t *testing.T) {
	sess := adhocga.NewSession(adhocga.WithPoolSize(1))
	t.Cleanup(sess.Close)
	srv := New(sess, Options{})
	sandbox := srv.newSandbox(jobstore.Record{ID: "job-1", Kind: "scenarios"})
	defer sandbox.Close()
	if got := sandbox.PoolSize(); got != 1 {
		t.Fatalf("sandbox pool = %d, want the serving pool's 1", got)
	}
}
