package p2p

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain wraps the package's tests with a goroutine-leak barrier: the
// goroutine count after the run must settle back to (at most) the count
// before it. Every Cluster the tests start is expected to be Stopped, and
// Stop waits for the queue drainers through the WaitGroup — so a count
// that stays elevated means a test leaked a cluster, or a code change
// detached a goroutine from the WaitGroup. This is the dependency-free
// version of what goleak.VerifyTestMain does, scoped to what this package
// needs: a whole-suite barrier, not per-test attribution.
//
// The count is polled with a grace window rather than read once: runtime
// internals (timer goroutines, the testing machinery itself) wind down
// asynchronously after m.Run returns, and a drainer may still be running
// its deferred Done when Stop's WaitGroup releases the test.
func TestMain(m *testing.M) {
	// +1: under `go test -fuzz`, the fuzzing engine installs an os/signal
	// handler goroutine that lives until process exit.
	before := runtime.NumGoroutine() + 1
	code := m.Run()
	if code == 0 {
		if n := settleGoroutines(before, 5*time.Second); n > before {
			fmt.Fprintf(os.Stderr,
				"goroutine leak: %d goroutines before the suite, %d still running after it\n%s",
				before, n, goroutineDump())
			code = 1
		}
	}
	os.Exit(code)
}

// settleGoroutines waits for the goroutine count to drop to at most want,
// returning the last observed count when the deadline passes.
func settleGoroutines(want int, deadline time.Duration) int {
	var n int
	for end := time.Now().Add(deadline); ; {
		n = runtime.NumGoroutine()
		if n <= want || time.Now().After(end) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// goroutineDump renders all goroutine stacks for the leak report.
func goroutineDump() []byte {
	buf := make([]byte, 1<<20)
	return buf[:runtime.Stack(buf, true)]
}
