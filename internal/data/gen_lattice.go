package data

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
)

// LatticeSpec parameterizes the jittered-lattice generator: Side^Dims unit
// cells, each holding PerCell tuples placed uniformly inside it. The point
// density is uniform (one stratum per cell), so with ε = 1 every interior
// tuple's expected neighbor count is the unit-ball volume times PerCell —
// a workload whose inlier/outlier geometry is known in closed form, which
// the detection benchmarks and the lattice smoke test rely on. Noise
// appends isolated tuples far outside the lattice (pairwise spacing > 4),
// each a guaranteed outlier at any small ε.
type LatticeSpec struct {
	// Side is the number of cells per axis (required, ≥ 1).
	Side int
	// PerCell is the number of tuples per cell (default 1).
	PerCell int
	// Dims is the number of numeric attributes (default 3, max 8).
	Dims int
	// Noise appends this many isolated outlier tuples after the lattice.
	Noise int
	// Seed drives the jitter; equal specs generate identical rows.
	Seed int64
}

func (sp LatticeSpec) withDefaults() LatticeSpec {
	if sp.Dims <= 0 {
		sp.Dims = 3
	}
	if sp.PerCell <= 0 {
		sp.PerCell = 1
	}
	return sp
}

func (sp LatticeSpec) validate() error {
	if sp.Side < 1 {
		return fmt.Errorf("data: lattice side %d < 1", sp.Side)
	}
	if sp.Dims > 8 {
		return fmt.Errorf("data: lattice dims %d > 8", sp.Dims)
	}
	if sp.Noise < 0 {
		return fmt.Errorf("data: lattice noise %d < 0", sp.Noise)
	}
	if n := sp.N(); n > 1<<28 {
		return fmt.Errorf("data: lattice size %d exceeds 2^28 rows", n)
	}
	return nil
}

// N returns the number of rows the spec generates.
func (sp LatticeSpec) N() int {
	sp = sp.withDefaults()
	n := sp.PerCell
	for a := 0; a < sp.Dims; a++ {
		n *= sp.Side
	}
	return n + sp.Noise
}

// each streams the rows in generation order into fn, reusing one buffer —
// fn must copy the row if it retains it. This is the single source both
// GenLattice and StreamLatticeCSV draw from, so a materialized relation
// and a streamed CSV of the same spec hold identical values.
func (sp LatticeSpec) each(fn func(row []float64) error) error {
	sp = sp.withDefaults()
	if err := sp.validate(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(sp.Seed))
	row := make([]float64, sp.Dims)
	cells := 1
	for a := 0; a < sp.Dims; a++ {
		cells *= sp.Side
	}
	for c := 0; c < cells; c++ {
		x := c
		for a := 0; a < sp.Dims; a++ {
			row[a] = float64(x % sp.Side)
			x /= sp.Side
		}
		for p := 0; p < sp.PerCell; p++ {
			for a := 0; a < sp.Dims; a++ {
				row[a] = float64(int(row[a])) + rng.Float64()
			}
			if err := fn(row); err != nil {
				return err
			}
		}
	}
	// Noise sits on the negative diagonal at spacing 4 per step: pairwise
	// distances ≥ 4 and distance ≥ 4 from the lattice under any norm, so
	// every noise tuple is an outlier whenever ε < 4 and η ≥ 1.
	for i := 0; i < sp.Noise; i++ {
		for a := range row {
			row[a] = -4 * float64(i+1)
		}
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// latticeSchema names the attributes a0..a{d-1}, all numeric.
func (sp LatticeSpec) schema() *Schema {
	sp = sp.withDefaults()
	names := make([]string, sp.Dims)
	for a := range names {
		names[a] = fmt.Sprintf("a%d", a)
	}
	return NewNumericSchema(names...)
}

// GenLattice materializes the jittered lattice as a relation (the
// benchmark workloads' entry point). For row counts that should not be
// resident, use StreamLatticeCSV instead.
func GenLattice(sp LatticeSpec) (*Relation, error) {
	sp = sp.withDefaults()
	if err := sp.validate(); err != nil {
		return nil, err
	}
	rel := NewRelation(sp.schema())
	rel.Tuples = make([]Tuple, 0, sp.N())
	err := sp.each(func(row []float64) error {
		t := make(Tuple, len(row))
		for a, v := range row {
			t[a] = Num(v)
		}
		rel.Append(t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// StreamLatticeCSV writes the spec's rows as typed-header CSV without ever
// materializing the relation: one reused row buffer and a buffered writer,
// so generating tens of millions of rows costs O(Dims) memory. The output
// parses back through ReadCSV into the same relation GenLattice builds.
func StreamLatticeCSV(w io.Writer, sp LatticeSpec) error {
	sp = sp.withDefaults()
	if err := sp.validate(); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	for a := 0; a < sp.Dims; a++ {
		if a > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "a%d:numeric", a); err != nil {
			return err
		}
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	var num []byte
	err := sp.each(func(row []float64) error {
		for a, v := range row {
			if a > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			num = strconv.AppendFloat(num[:0], v, 'g', -1, 64)
			if _, err := bw.Write(num); err != nil {
				return err
			}
		}
		return bw.WriteByte('\n')
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
