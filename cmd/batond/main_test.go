package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"baton/internal/keyspace"
	"baton/internal/p2p"
	"baton/internal/workload"
)

// TestValidateFlags pins the role split: exactly one of -listen and -seed,
// a valid fanout for a coordinator, and no coordinator-only flag on a
// daemon.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct{ args, wantErr string }{
		{"-listen 127.0.0.1:0 -peers 8 -items 10 -fanout 4 -rngseed 3", ""},
		{"-seed 127.0.0.1:7331 -peers 2", ""},
		{"-peers 2", "exactly one of -listen"},
		{"-listen 127.0.0.1:0 -seed 127.0.0.1:7331", "exactly one of -listen"},
		{"-seed 127.0.0.1:7331 -items 5", "ignores flag(s) [-items]"},
		{"-seed 127.0.0.1:7331 -fanout 4 -rngseed 2", "ignores flag(s) [-fanout -rngseed]"},
		{"-listen 127.0.0.1:0 -fanout 1", "invalid -fanout 1"},
	} {
		var o options
		fs := flag.NewFlagSet("batond", flag.ContinueOnError)
		defineFlags(fs, &o)
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		err := validateFlags(fs, o)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: got error %v, want one containing %q", tc.args, err, tc.wantErr)
		}
	}
}

// TestTwoProcessCluster builds batond and runs it as real OS processes: a
// coordinator on a free loopback port and a daemon joined to it. A zero-peer
// client drives puts, gets and an exact full-domain range through both, and
// SIGINT stops each with exit 0. Killing a coordinator outright makes its
// daemon exit 1 on its lost seed connection.
func TestTwoProcessCluster(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build batond with")
	}
	bin := filepath.Join(t.TempDir(), "batond")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build batond: %v\n%s", err, out)
	}

	t.Run("serve", func(t *testing.T) {
		const items = 2000
		head := startBatond(t, bin, "-listen", "127.0.0.1:0", "-peers", "8", "-items", fmt.Sprint(items))
		addr := head.waitFor(t, `coordinator listening on (\S+)`)
		daemon := startBatond(t, bin, "-seed", addr, "-peers", "4")
		daemon.waitFor(t, `joined overlay`)

		client, err := p2p.JoinRemote(addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Stop()
		// The coordinator preloads the keys of its -rngseed (1) + 1 generator.
		want := workload.NewGenerator(workload.Config{Seed: 2}).Keys(items)
		vias := client.PeerIDs()
		for i := 0; i < 200; i++ {
			k := keyspace.Key(1 + i*4_999_999)
			if _, err := client.Put(vias[i%len(vias)], k, []byte(fmt.Sprint(k))); err != nil {
				t.Fatalf("put %d: %v", k, err)
			}
			want = append(want, k)
		}
		for i, k := range want[items:] {
			if v, found, _, err := client.Get(vias[(i+1)%len(vias)], k); err != nil || !found || string(v) != fmt.Sprint(k) {
				t.Fatalf("get %d: %q found=%v err=%v", k, v, found, err)
			}
		}
		got, _, err := client.Query(vias[0], p2p.Query{Range: client.Domain()})
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(want)
		want = slices.Compact(want)
		keys := make([]keyspace.Key, len(got))
		for i, it := range got {
			keys[i] = it.Key
		}
		if !slices.Equal(keys, want) {
			t.Fatalf("full-domain range returned %d keys, want exactly the %d written", len(keys), len(want))
		}
		client.Stop()

		if code := daemon.stop(t, os.Interrupt); code != 0 {
			t.Fatalf("daemon exited %d on SIGINT:\n%s", code, daemon.out.String())
		}
		if code := head.stop(t, os.Interrupt); code != 0 {
			t.Fatalf("coordinator exited %d on SIGINT:\n%s", code, head.out.String())
		}
	})

	t.Run("seed-lost", func(t *testing.T) {
		head := startBatond(t, bin, "-listen", "127.0.0.1:0", "-peers", "4")
		addr := head.waitFor(t, `coordinator listening on (\S+)`)
		daemon := startBatond(t, bin, "-seed", addr, "-peers", "2")
		daemon.waitFor(t, `joined overlay`)
		head.stop(t, syscall.SIGKILL)
		if code := daemon.stop(t, nil); code != 1 || !strings.Contains(daemon.out.String(), "seed connection lost") {
			t.Fatalf("daemon exited %d after its coordinator was killed, want 1 and \"seed connection lost\":\n%s", code, daemon.out.String())
		}
	})
}

// batond is one running batond process and its combined output.
type batond struct {
	cmd  *exec.Cmd
	out  syncBuffer
	done chan struct{} // closed once the process has exited
}

// startBatond runs bin with args; cleanup kills the process if it is still
// running.
func startBatond(t *testing.T, bin string, args ...string) *batond {
	t.Helper()
	p := &batond{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.cmd.Wait() //nolint:errcheck // the exit code is read from ProcessState
		close(p.done)
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill() //nolint:errcheck // it may have exited already
		<-p.done
	})
	return p
}

// waitFor polls the process's output until re matches and returns re's
// last submatch.
func (p *batond) waitFor(t *testing.T, re string) string {
	t.Helper()
	rx := regexp.MustCompile(re)
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := rx.FindStringSubmatch(p.out.String()); m != nil {
			return m[len(m)-1]
		}
	}
	t.Fatalf("%v never printed %q:\n%s", p.cmd.Args, re, p.out.String())
	return ""
}

// stop sends sig (none when nil), waits for the process to exit and
// returns its exit code (-1 when a signal ended it).
func (p *batond) stop(t *testing.T, sig os.Signal) int {
	t.Helper()
	if sig != nil {
		if err := p.cmd.Process.Signal(sig); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%v did not exit:\n%s", p.cmd.Args, p.out.String())
	}
	return p.cmd.ProcessState.ExitCode()
}

// syncBuffer is a bytes.Buffer safe to write from the process's output
// copier while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
