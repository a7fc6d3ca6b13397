package snapshot

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/metric"
	"repro/internal/serve/api"
)

func testSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	sch := &data.Schema{Attrs: []data.Attribute{
		{Name: "x", Kind: data.Numeric},
		{Name: "city", Kind: data.Text, Scale: 2, Text: metric.NeedlemanWunsch},
	}}
	rel := data.NewRelation(sch)
	rel.Append(data.Tuple{data.Num(1.5), data.Str("austin")})
	rel.Append(data.Tuple{data.Num(-2), data.Str("boston")})
	rel.Append(data.Tuple{data.Num(40), data.Str("zzz")})
	return &Snapshot{
		ID: "abc123", Name: "test.csv", Key: "test.csv|1|3|2|0|1",
		SourcePath: "/data/test.csv",
		Params:     api.BuildParams{Eps: 1, Eta: 3, Kappa: 2, Seed: 1},
		Eps:        1, Eta: 3,
		Rel:    rel,
		Counts: []int{5, 4, 0},
		// Truncate: JSON round-trips RFC3339 nanoseconds, not monotonic clocks.
		CreatedAt: time.Now().Truncate(time.Second),
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "abc123"+Ext)
	want := testSnapshot(t)
	if err := Write(path, want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, hint, err := Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.ID != want.ID || got.Name != want.Name || got.Key != want.Key ||
		got.SourcePath != want.SourcePath || got.Params != want.Params ||
		got.Eps != want.Eps || got.Eta != want.Eta {
		t.Fatalf("metadata mismatch: got %+v", got)
	}
	if hint == nil || hint.ID != want.ID || hint.SourcePath != want.SourcePath {
		t.Fatalf("hint = %+v", hint)
	}
	if got.Rel.N() != want.Rel.N() || got.Rel.Schema.M() != 2 {
		t.Fatalf("relation shape %dx%d", got.Rel.N(), got.Rel.Schema.M())
	}
	for i, tu := range want.Rel.Tuples {
		for a := range tu {
			if !got.Rel.Tuples[i][a].Equal(tu[a], want.Rel.Schema.Attrs[a].Kind) {
				t.Fatalf("tuple %d attr %d differs", i, a)
			}
		}
	}
	if len(got.Counts) != 3 || got.Counts[2] != 0 {
		t.Fatalf("counts = %v", got.Counts)
	}
	if !got.CreatedAt.Equal(want.CreatedAt) {
		t.Fatalf("created %v != %v", got.CreatedAt, want.CreatedAt)
	}
	// The named metric is restored as a real function, and the distances
	// it produces match the original schema's.
	a, b := "austin", "boston"
	if got.Rel.Schema.Attrs[1].Text == nil ||
		got.Rel.Schema.Attrs[1].Text(a, b) != want.Rel.Schema.Attrs[1].Text(a, b) {
		t.Fatal("text metric did not round-trip")
	}
	// No temp leftovers after a clean write.
	if n, _ := CleanTemp(dir); n != 0 {
		t.Fatalf("%d temp files after clean write", n)
	}
}

func TestBitFlipCorruptionKeepsHint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s"+Ext)
	if err := Write(path, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit deep in the payload (past header + hint), leaving the
	// hint section intact.
	b[len(b)-10] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s, hint, err := Read(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read = (%v, %v), want ErrCorrupt", s, err)
	}
	if s != nil {
		t.Fatal("corrupt read returned a snapshot")
	}
	if hint == nil || hint.SourcePath != "/data/test.csv" {
		t.Fatalf("hint = %+v, want the rebuild hint to survive payload corruption", hint)
	}
}

func TestHintCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s"+Ext)
	if err := Write(path, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	b[headerSize+3] ^= 0xff // inside the hint section
	os.WriteFile(path, b, 0o644)
	s, hint, err := Read(path)
	if !errors.Is(err, ErrCorrupt) || s != nil || hint != nil {
		t.Fatalf("Read = (%v, %v, %v), want (nil, nil, ErrCorrupt)", s, hint, err)
	}
}

func TestTruncatedAndGarbage(t *testing.T) {
	dir := t.TempDir()
	for name, bytes := range map[string][]byte{
		"empty":    {},
		"garbage":  []byte("not a snapshot at all"),
		"badmagic": append([]byte("WRONGMAG"), make([]byte, 64)...),
	} {
		path := filepath.Join(dir, name+Ext)
		os.WriteFile(path, bytes, 0o644)
		if _, _, err := Read(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// Truncated mid-payload: header claims more bytes than exist.
	path := filepath.Join(dir, "trunc"+Ext)
	if err := Write(path, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	os.WriteFile(path, b[:len(b)-20], 0o644)
	if _, _, err := Read(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated: err = %v, want ErrCorrupt", err)
	}
}

func TestVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s"+Ext)
	if err := Write(path, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	b[len(magic)] = 99 // version field, little-endian low byte
	os.WriteFile(path, b, 0o644)
	if _, _, err := Read(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestUnsupportedCustomMetric(t *testing.T) {
	s := testSnapshot(t)
	s.Rel.Schema.Attrs[1].Text = func(a, b string) float64 { return 0 }
	err := Write(filepath.Join(t.TempDir(), "s"+Ext), s)
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

func TestUnsupportedNonFinite(t *testing.T) {
	s := testSnapshot(t)
	s.Rel.Tuples[1][0] = data.Num(math.Inf(-1))
	err := Write(filepath.Join(t.TempDir(), "s"+Ext), s)
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

// TestGoldenSectionBytes pins the hint and payload bytes of a fixed
// snapshot, so the on-disk format cannot drift with the wire types it
// shares (api.BuildParams is the hint's params record, data.TupleToJSON
// writes the payload rows). Snapshot files already on disk hold these
// bytes; older hints whose params also carry "approx" and
// "approx_confidence" still recover (serve's
// TestRecoverSnapshotWithRemovedParams).
func TestGoldenSectionBytes(t *testing.T) {
	sch := &data.Schema{Attrs: []data.Attribute{
		{Name: "x", Kind: data.Numeric},
		{Name: "city", Kind: data.Text, Scale: 2, Text: metric.NeedlemanWunsch},
	}}
	rel := data.NewRelation(sch)
	rel.Append(data.Tuple{data.Num(1.5), data.Str("austin")})
	rel.Append(data.Tuple{data.Num(-2e-7), data.Str(`bo"s<ton>`)})
	const payload = `{"eps":1.5,"eta":18,"norm":0,"attrs":[{"name":"x","kind":"numeric"},` +
		`{"name":"city","kind":"text","scale":2,"metric":"needleman-wunsch"}],` +
		`"tuples":[[1.5,"austin"],[-2e-7,"bo\"s\u003cton\u003e"]],"counts":[18,3],` +
		`"created_at":"2024-05-06T07:08:09Z"}`
	for _, tc := range []struct {
		params api.BuildParams
		hint   string
	}{
		{api.BuildParams{Eps: 1.5, Eta: 18, Kappa: 2, MaxNodes: 2000, Seed: 7, Index: "vp"},
			`{"id":"s-1","name":"letter.csv","key":"k|1","source_path":"/data/letter.csv",` +
				`"params":{"eps":1.5,"eta":18,"kappa":2,"max_nodes":2000,"seed":7,"index":"vp"}}`},
		{api.BuildParams{},
			`{"id":"s-1","name":"letter.csv","key":"k|1","source_path":"/data/letter.csv",` +
				`"params":{"eps":0,"eta":0,"kappa":0,"max_nodes":0,"seed":0}}`},
	} {
		s := &Snapshot{ID: "s-1", Name: "letter.csv", Key: "k|1", SourcePath: "/data/letter.csv",
			Params: tc.params, Eps: 1.5, Eta: 18, Rel: rel, Counts: []int{18, 3},
			CreatedAt: time.Date(2024, 5, 6, 7, 8, 9, 0, time.UTC)}
		hint, pl, err := encode(s)
		if err != nil {
			t.Fatal(err)
		}
		if string(hint) != tc.hint {
			t.Errorf("hint bytes\n got %s\nwant %s", hint, tc.hint)
		}
		if string(pl) != payload {
			t.Errorf("payload bytes\n got %s\nwant %s", pl, payload)
		}
	}
}

func TestWriteFaultLeavesPreviousSnapshot(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	path := filepath.Join(dir, "s"+Ext)
	first := testSnapshot(t)
	if err := Write(path, first); err != nil {
		t.Fatal(err)
	}
	if err := fault.Configure("snapshot.write:error", 1); err != nil {
		t.Fatal(err)
	}
	second := testSnapshot(t)
	second.Name = "replacement"
	err := Write(path, second)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Write under fault = %v, want ErrInjected", err)
	}
	fault.Reset()
	// The failed write aborted before the rename: the old snapshot is
	// intact and no temp file leaked.
	got, _, err := Read(path)
	if err != nil || got.Name != first.Name {
		t.Fatalf("previous snapshot lost: %v, %v", got, err)
	}
	if n, _ := CleanTemp(dir); n != 0 {
		t.Fatalf("%d temp files leaked by a failed write", n)
	}
}

func TestListAndCleanTemp(t *testing.T) {
	dir := t.TempDir()
	older := filepath.Join(dir, "older"+Ext)
	newer := filepath.Join(dir, "newer"+Ext)
	if err := Write(older, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	if err := Write(newer, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	// Force a visible mtime ordering regardless of filesystem resolution.
	past := time.Now().Add(-time.Hour)
	os.Chtimes(older, past, past)
	// Non-snapshot noise is ignored; torn-write leftovers are cleaned.
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, ".tmp-s"+Ext+"-123"), []byte("torn"), 0o644)

	paths, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || !strings.HasSuffix(paths[0], "older"+Ext) || !strings.HasSuffix(paths[1], "newer"+Ext) {
		t.Fatalf("List = %v, want [older newer]", paths)
	}
	n, err := CleanTemp(dir)
	if err != nil || n != 1 {
		t.Fatalf("CleanTemp = (%d, %v), want (1, nil)", n, err)
	}
}
