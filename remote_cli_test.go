package disc_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/serve/api"
)

// TestCLIRemoteChunkedRepair runs `disccli -remote` on a dataset with more
// outliers than a worker's default admission queue. Against a default
// server the repair goes out in queue-sized chunks, completes remotely (no
// fallback) and writes the same CSV as a local run; against a server whose
// -max-queue is smaller than a chunk, the 413 reaches the user as an error
// and the CLI does not fall back.
func TestCLIRemoteChunkedRepair(t *testing.T) {
	disccli := buildTool(t, "disccli")
	dir := t.TempDir()
	in := filepath.Join(dir, "noisy.csv")

	// A 20×20 grid cluster (spacing 0.1) plus 300 isolated points far
	// from it and from each other: every isolated point is an outlier
	// under (ε=0.5, η=3).
	const nOut = 300
	if nOut <= api.DefaultMaxQueue {
		t.Fatalf("%d outliers do not exceed the default queue bound %d", nOut, api.DefaultMaxQueue)
	}
	var csv strings.Builder
	csv.WriteString("x,y\n")
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			fmt.Fprintf(&csv, "%g,%g\n", float64(i)*0.1, float64(j)*0.1)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < nOut; k++ {
		fmt.Fprintf(&csv, "%g,%g\n", 10+float64(k)*3, 10+rng.Float64()*90)
	}
	if err := os.WriteFile(in, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(out string, extra ...string) (string, error) {
		args := append([]string{"-in", in, "-out", out, "-eps", "0.5", "-eta", "3"}, extra...)
		cmd := exec.Command(disccli, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		return stderr.String(), err
	}

	localOut := filepath.Join(dir, "local.csv")
	if stderr, err := run(localOut); err != nil {
		t.Fatalf("local run: %v\n%s", err, stderr)
	}

	def := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer def.Close()
	remoteOut := filepath.Join(dir, "remote.csv")
	stderr, err := run(remoteOut, "-remote", def.URL)
	if err != nil {
		t.Fatalf("remote run: %v\n%s", err, stderr)
	}
	if strings.Contains(stderr, "falling back") {
		t.Fatalf("remote run fell back to local execution:\n%s", stderr)
	}
	if want := fmt.Sprintf("%d outliers", nOut); !strings.Contains(stderr, "disccli: remote: ") || !strings.Contains(stderr, want) {
		t.Fatalf("remote summary missing or not %q:\n%s", want, stderr)
	}
	local, _ := os.ReadFile(localOut)
	remote, _ := os.ReadFile(remoteOut)
	if len(local) == 0 || !bytes.Equal(local, remote) {
		t.Fatalf("remote CSV differs from the local run (%d vs %d bytes)", len(remote), len(local))
	}

	small := httptest.NewServer(serve.New(serve.Config{MaxQueue: 100}).Handler())
	defer small.Close()
	stderr, err = run(filepath.Join(dir, "small.csv"), "-remote", small.URL)
	if err == nil {
		t.Fatalf("remote run against -max-queue 100 succeeded; want the 413 as an error:\n%s", stderr)
	}
	if !strings.Contains(stderr, "413") || !strings.Contains(stderr, "capacity 100") {
		t.Errorf("the 413 naming the capacity did not reach the user:\n%s", stderr)
	}
	if strings.Contains(stderr, "falling back") {
		t.Errorf("a 413 triggered the local fallback:\n%s", stderr)
	}
}
