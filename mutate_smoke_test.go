package disc_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	disc "repro"
)

// TestMutateSmoke drives a real discserve process through the mutable
// session lifecycle: upload a dataset, insert tuples until the index's
// delta buffer merges mid-stream, update and delete rows, screen and
// repair against the mutated state, and drain on SIGTERM — the scripted
// round-trip `make mutate-smoke` runs in CI.
func TestMutateSmoke(t *testing.T) {
	discserve := buildTool(t, "discserve")

	cmd := exec.Command(discserve, "-addr", "127.0.0.1:0", "-log-level", "warn")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting discserve: %v", err)
	}
	waitErr := make(chan error, 1)
	defer cmd.Process.Kill()

	// One goroutine owns the pipe end to end: scan stderr to EOF, then
	// reap the process. Wait closes the pipe the moment the child exits,
	// so calling it concurrently races the final lines — the drain
	// confirmation — out from under the scanner.
	sc := bufio.NewScanner(stderr)
	var base string
	lines := make(chan string, 64)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		waitErr <- cmd.Wait()
	}()
	select {
	case line := <-lines:
		const prefix = "discserve: listening on "
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("unexpected first stderr line %q", line)
		}
		base = "http://" + strings.TrimPrefix(line, prefix)
	case err := <-waitErr:
		t.Fatalf("discserve exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("discserve never announced its address")
	}

	client := &http.Client{Timeout: 30 * time.Second}
	request := func(method, path string, body any) (*http.Response, []byte) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(b)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, out
	}

	// Upload a vp-indexed cluster: vp absorbs single-tuple inserts through
	// its delta buffer, so enough appends force a mid-stream merge. Three
	// attributes make the session's κ=2 a real restriction (κ < m), so the
	// save below runs on the attribute-group indexes the inserts and
	// deletes must keep in step.
	rel := disc.NewRelation(disc.NewNumericSchema("x", "y", "z"))
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			rel.Append(disc.Tuple{disc.Num(float64(i) * 0.4), disc.Num(float64(j) * 0.4), disc.Num(float64((i+j)%3) * 0.4)})
		}
	}
	var csvBuf bytes.Buffer
	if err := disc.WriteCSV(&csvBuf, rel); err != nil {
		t.Fatal(err)
	}
	resp, body := request("POST", "/v1/datasets", map[string]any{
		"name": "mutate-smoke", "csv": csvBuf.String(),
		"eps": 1.0, "eta": 3, "kappa": 2, "index": "vp",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d, body %s", resp.StatusCode, body)
	}
	var session struct {
		ID    string `json:"id"`
		Index string `json:"index"`
	}
	if err := json.Unmarshal(body, &session); err != nil {
		t.Fatalf("decode session: %v\n%s", err, body)
	}
	if session.Index != "vp" {
		t.Fatalf("session index = %q, want vp", session.Index)
	}
	sessPath := "/v1/datasets/" + session.ID

	// Insert a second cluster, one tuple at a time — 40 inserts push the
	// 36-row base past the delta-merge threshold mid-stream.
	var lastHandle int
	for i := 0; i < 40; i++ {
		resp, body = request("POST", sessPath+"/tuples", map[string]any{
			"tuple": []float64{3.0 + float64(i%7)*0.3, 3.0 + float64(i/7)*0.3, 3.0 + float64(i%3)*0.3},
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("insert %d: status %d, body %s", i, resp.StatusCode, body)
		}
		var mres struct {
			Index  int `json:"index"`
			Tuples int `json:"tuples"`
		}
		if err := json.Unmarshal(body, &mres); err != nil {
			t.Fatal(err)
		}
		if mres.Index != 36+i || mres.Tuples != 37+i {
			t.Fatalf("insert %d: handle %d / %d live, want %d / %d", i, mres.Index, mres.Tuples, 36+i, 37+i)
		}
		lastHandle = mres.Index
	}

	// The new cluster's interior is now inlier territory.
	resp, body = request("POST", sessPath+"/detect", map[string]any{
		"tuples": [][]float64{{3.3, 3.3, 3.3}, {25, 25, 25}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect: status %d, body %s", resp.StatusCode, body)
	}
	var det struct {
		Results []struct {
			Outlier bool `json:"outlier"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &det); err != nil {
		t.Fatal(err)
	}
	if len(det.Results) != 2 || det.Results[0].Outlier || !det.Results[1].Outlier {
		t.Fatalf("post-insert detect results = %s", body)
	}

	// Update the last inserted row, then delete it; its handle becomes a
	// hole while every other handle keeps working.
	resp, body = request("PUT", fmt.Sprintf("%s/tuples/%d", sessPath, lastHandle),
		map[string]any{"tuple": []float64{3.1, 3.1, 3.1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d, body %s", resp.StatusCode, body)
	}
	resp, body = request("DELETE", fmt.Sprintf("%s/tuples/%d", sessPath, lastHandle), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d, body %s", resp.StatusCode, body)
	}
	resp, _ = request("DELETE", fmt.Sprintf("%s/tuples/%d", sessPath, lastHandle), nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: status %d, want 404", resp.StatusCode)
	}

	// A save near the inserted cluster repairs against the mutated state:
	// only the appended tuples can donate values in the 3.x range. Its z
	// is off by ~6, so the κ=2 search must adjust z from the union of the
	// attribute-group queries.
	resp, body = request("POST", sessPath+"/save", map[string]any{"tuple": []float64{4.6, 3.4, 9}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("save: status %d, body %s", resp.StatusCode, body)
	}
	var adj struct {
		Saved    bool     `json:"saved"`
		Tuple    []any    `json:"tuple"`
		Cost     float64  `json:"cost"`
		Adjusted []string `json:"adjusted"`
	}
	if err := json.Unmarshal(body, &adj); err != nil {
		t.Fatal(err)
	}
	if !adj.Saved {
		t.Fatalf("outlier near the inserted cluster not saved: %s", body)
	}
	if len(adj.Adjusted) == 0 || len(adj.Adjusted) > 2 || !slices.Contains(adj.Adjusted, "z") {
		t.Fatalf("κ=2 save adjusted %v, want z and at most one other attribute: %s", adj.Adjusted, body)
	}

	// Session info: mutation counters moved and the vp delta buffer merged
	// at least once mid-stream.
	resp, body = request("GET", sessPath, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("info: status %d, body %s", resp.StatusCode, body)
	}
	var info struct {
		Tuples      int   `json:"tuples"`
		Inserted    int64 `json:"tuples_inserted"`
		Updated     int64 `json:"tuples_updated"`
		Deleted     int64 `json:"tuples_deleted"`
		Redetect    int64 `json:"redetect_touched"`
		DeltaMerges int64 `json:"delta_merges"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Inserted != 40 || info.Updated != 1 || info.Deleted != 1 {
		t.Fatalf("mutation counters = %+v, want 40 inserted / 1 updated / 1 deleted", info)
	}
	if info.Tuples != 75 {
		t.Fatalf("live tuples = %d, want 75 (36 + 40 - 1 deleted)", info.Tuples)
	}
	if info.Redetect == 0 {
		t.Errorf("redetect_touched stayed zero across 42 mutations")
	}
	if info.DeltaMerges == 0 {
		t.Errorf("delta_merges stayed zero: 40 single-tuple inserts never merged the vp delta buffer")
	}

	// Drain.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("discserve exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("discserve never drained")
	}
	var drained bool
	for line := range lines {
		if strings.Contains(line, "drained") {
			drained = true
		}
	}
	if !drained {
		t.Error("no drain confirmation on stderr")
	}
}
