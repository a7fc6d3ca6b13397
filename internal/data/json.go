package data

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/metric"
)

// jsonDataset is the serialization schema for a Dataset: everything an
// experiment needs to rerun bit-for-bit, including the injected ground
// truth, without re-running the generator.
type jsonDataset struct {
	Name    string        `json:"name"`
	Attrs   []jsonAttr    `json:"attrs"`
	Norm    uint8         `json:"norm"`
	Tuples  [][]any       `json:"tuples"`
	Labels  []int         `json:"labels"`
	Dirty   []uint64      `json:"dirty"`
	Natural []bool        `json:"natural"`
	Clean   map[int][]any `json:"clean,omitempty"`
	Eps     float64       `json:"eps"`
	Eta     int           `json:"eta"`
	Classes int           `json:"classes"`
}

type jsonAttr struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Scale float64 `json:"scale,omitempty"`
}

// WriteDatasetJSON serializes the dataset. Custom textual distance
// functions are not serialized (they are code); the reader restores the
// default Levenshtein for text attributes.
func WriteDatasetJSON(w io.Writer, ds *Dataset) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	out := jsonDataset{
		Name:    ds.Name,
		Norm:    uint8(ds.Rel.Schema.Norm),
		Labels:  ds.Labels,
		Natural: ds.Natural,
		Eps:     ds.Eps,
		Eta:     ds.Eta,
		Classes: ds.Classes,
		Clean:   map[int][]any{},
	}
	for _, a := range ds.Rel.Schema.Attrs {
		out.Attrs = append(out.Attrs, jsonAttr{Name: a.Name, Kind: a.Kind.String(), Scale: a.Scale})
	}
	sch := ds.Rel.Schema
	for _, t := range ds.Rel.Tuples {
		out.Tuples = append(out.Tuples, TupleToJSON(sch, t))
	}
	out.Dirty = make([]uint64, len(ds.Dirty))
	for i, m := range ds.Dirty {
		out.Dirty[i] = uint64(m)
		if m != 0 {
			out.Clean[i] = TupleToJSON(sch, ds.Clean[i])
		}
	}
	e := json.NewEncoder(w)
	return e.Encode(out)
}

// ReadDatasetJSON deserializes a dataset written by WriteDatasetJSON.
func ReadDatasetJSON(r io.Reader) (*Dataset, error) {
	var in jsonDataset
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("data: decode dataset: %w", err)
	}
	schema := &Schema{Norm: normFromByte(in.Norm)}
	for _, a := range in.Attrs {
		kind := Numeric
		if a.Kind == "text" {
			kind = Text
		}
		schema.Attrs = append(schema.Attrs, Attribute{Name: a.Name, Kind: kind, Scale: a.Scale})
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	ds := &Dataset{
		Name:    in.Name,
		Rel:     NewRelation(schema),
		Labels:  in.Labels,
		Natural: in.Natural,
		Eps:     in.Eps,
		Eta:     in.Eta,
		Classes: in.Classes,
	}
	for i, row := range in.Tuples {
		t, err := TupleFromJSON(schema, row)
		if err != nil {
			return nil, fmt.Errorf("data: tuple %d: %w", i, err)
		}
		ds.Rel.Append(t)
	}
	n := ds.Rel.N()
	ds.Dirty = make([]AttrMask, n)
	ds.Clean = make([]Tuple, n)
	if len(in.Dirty) != n || len(in.Labels) != n || len(in.Natural) != n {
		return nil, fmt.Errorf("data: dataset arrays disagree with n=%d", n)
	}
	for i, m := range in.Dirty {
		ds.Dirty[i] = AttrMask(m)
		if m != 0 {
			row, ok := in.Clean[i]
			if !ok {
				return nil, fmt.Errorf("data: dirty tuple %d lacks its clean original", i)
			}
			t, err := TupleFromJSON(schema, row)
			if err != nil {
				return nil, fmt.Errorf("data: clean tuple %d: %w", i, err)
			}
			ds.Clean[i] = t
		}
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// TupleToJSON shapes one tuple for the wire and for JSON files: a number
// for each numeric attribute, a string for each text one.
func TupleToJSON(sch *Schema, t Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		if sch.Attrs[i].Kind == Text {
			out[i] = v.Str
		} else {
			out[i] = v.Num
		}
	}
	return out
}

// TupleFromJSON is TupleToJSON's inverse for a decoded JSON array. It
// checks the arity against the schema, the kind of every value, and that
// every number is finite (a Go caller can hand it NaN or ±Inf even though
// JSON cannot carry them).
func TupleFromJSON(sch *Schema, raw []any) (Tuple, error) {
	if len(raw) != sch.M() {
		return nil, fmt.Errorf("tuple has %d values, schema has %d attributes", len(raw), sch.M())
	}
	t := make(Tuple, len(raw))
	for i, v := range raw {
		a := &sch.Attrs[i]
		if a.Kind == Text {
			s, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("attribute %q is text, got %T", a.Name, v)
			}
			t[i] = Str(s)
			continue
		}
		f, ok := v.(float64)
		if !ok {
			return nil, fmt.Errorf("attribute %q is numeric, got %T", a.Name, v)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("attribute %q is not finite", a.Name)
		}
		t[i] = Num(f)
	}
	return t, nil
}

func normFromByte(b uint8) metric.Norm { return metric.Norm(b) }
