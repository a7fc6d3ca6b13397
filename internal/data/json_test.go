package data

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestDatasetJSONRoundTrip(t *testing.T) {
	ds, err := Table1("Iris", 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDatasetJSON(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDatasetJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ds.N() || back.Classes != ds.Classes || back.Eps != ds.Eps || back.Eta != ds.Eta {
		t.Fatalf("shape changed: %+v", back)
	}
	for i := range ds.Rel.Tuples {
		for a := range ds.Rel.Tuples[i] {
			if ds.Rel.Tuples[i][a].Num != back.Rel.Tuples[i][a].Num {
				t.Fatalf("tuple %d attr %d changed", i, a)
			}
		}
		if ds.Labels[i] != back.Labels[i] || ds.Dirty[i] != back.Dirty[i] || ds.Natural[i] != back.Natural[i] {
			t.Fatalf("ground truth changed at %d", i)
		}
		if ds.Dirty[i] != 0 {
			for a := range ds.Clean[i] {
				if ds.Clean[i][a].Num != back.Clean[i][a].Num {
					t.Fatalf("clean original changed at %d", i)
				}
			}
		}
	}
}

func TestDatasetJSONTextRoundTrip(t *testing.T) {
	ds, err := Table1("Restaurant", 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDatasetJSON(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDatasetJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Rel.Tuples {
		for a := range ds.Rel.Tuples[i] {
			if ds.Rel.Tuples[i][a].Str != back.Rel.Tuples[i][a].Str {
				t.Fatalf("text tuple %d attr %d changed", i, a)
			}
		}
	}
	// Note: custom text distances are code, not data; the reader restores
	// the default Levenshtein.
	if back.Rel.Schema.Attrs[0].Text != nil {
		t.Error("text distance function should not survive serialization")
	}
	if back.Rel.Schema.Attrs[1].Scale != ds.Rel.Schema.Attrs[1].Scale {
		t.Error("attribute scale lost")
	}
}

func TestDatasetJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadDatasetJSON(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := ReadDatasetJSON(strings.NewReader(`{"attrs":[],"tuples":[]}`)); err == nil {
		t.Error("empty schema accepted")
	}
	// Dirty tuple without a clean original.
	bad := `{"name":"x","attrs":[{"name":"a","kind":"numeric"}],"tuples":[[1]],` +
		`"labels":[0],"dirty":[1],"natural":[false],"eps":1,"eta":1,"classes":1}`
	if _, err := ReadDatasetJSON(strings.NewReader(bad)); err == nil {
		t.Error("dirty-without-clean accepted")
	}
	// Type mismatch.
	bad2 := `{"name":"x","attrs":[{"name":"a","kind":"numeric"}],"tuples":[["str"]],` +
		`"labels":[0],"dirty":[0],"natural":[false],"eps":1,"eta":1,"classes":1}`
	if _, err := ReadDatasetJSON(strings.NewReader(bad2)); err == nil {
		t.Error("type mismatch accepted")
	}
}

// TestTupleJSONCodec pins the one tuple codec every JSON surface shares:
// round trips through real JSON bytes over numeric, text and mixed
// schemas, and the decoder's rejections. NaN and ±Inf cannot be written
// as JSON, so those cases hand the decoder Go values directly.
func TestTupleJSONCodec(t *testing.T) {
	numeric := NewNumericSchema("x", "y")
	text := &Schema{Attrs: []Attribute{{Name: "city", Kind: Text}}}
	mixed := &Schema{Attrs: []Attribute{{Name: "x", Kind: Numeric}, {Name: "city", Kind: Text}}}

	for _, tc := range []struct {
		name string
		sch  *Schema
		t    Tuple
	}{
		{"numeric", numeric, Tuple{Num(1.5), Num(-2e-7)}},
		{"numeric extremes", numeric, Tuple{Num(math.MaxFloat64), Num(-0.0)}},
		{"text", text, Tuple{Str(`bo"s<ton>`)}},
		{"text empty", text, Tuple{Str("")}},
		{"mixed", mixed, Tuple{Num(40), Str("austin")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := json.Marshal(TupleToJSON(tc.sch, tc.t))
			if err != nil {
				t.Fatal(err)
			}
			var raw []any
			if err := json.Unmarshal(b, &raw); err != nil {
				t.Fatal(err)
			}
			got, err := TupleFromJSON(tc.sch, raw)
			if err != nil {
				t.Fatalf("decoding %s: %v", b, err)
			}
			for i := range tc.t {
				if !got[i].Equal(tc.t[i], tc.sch.Attrs[i].Kind) {
					t.Fatalf("attribute %d: %+v after the round trip, want %+v", i, got[i], tc.t[i])
				}
			}
		})
	}

	for _, tc := range []struct {
		name string
		sch  *Schema
		raw  []any
		want string
	}{
		{"too few values", numeric, []any{1.0}, "1 values, schema has 2"},
		{"too many values", text, []any{"a", "b"}, "2 values, schema has 1"},
		{"text for numeric", numeric, []any{1.0, "2"}, `"y" is numeric`},
		{"number for text", mixed, []any{1.0, 2.0}, `"city" is text`},
		{"null", mixed, []any{nil, "a"}, `"x" is numeric`},
		{"NaN", numeric, []any{math.NaN(), 1.0}, `"x" is not finite`},
		{"+Inf", mixed, []any{math.Inf(1), "a"}, `"x" is not finite`},
		{"-Inf", numeric, []any{0.0, math.Inf(-1)}, `"y" is not finite`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := TupleFromJSON(tc.sch, tc.raw)
			if err == nil {
				t.Fatalf("accepted as %+v", got)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
