package data

import (
	"fmt"
	"strings"
)

// This file is the one place a dataset is chosen by name: the CLIs'
// -dataset / -gen flags (ByName) and the Standard and Adversarial sets
// are all read off the same table.

// sizing is what a caller may change of a generator's default config.
type sizing struct {
	scale float64 // multiplies the default object count
	n, m  int     // object count and points per object; 0 keeps the default
	seed  int64   // 0 keeps the default
}

// apply writes the overrides into a config's fields. Object counts have
// a floor of 8 so a tiny scale still yields interactions. m is nil for
// a generator whose object sizes are not one number.
func (s sizing) apply(n, m *int, seed *int64) {
	if s.n > 0 {
		*n = s.n
	} else {
		*n = max(int(float64(*n)*s.scale), 8)
	}
	if s.m > 0 && m != nil {
		*m = s.m
	}
	if s.seed != 0 {
		*seed = s.seed
	}
}

// named is one generated dataset: its flag name, its title in the
// Standard ('s') or Adversarial ('a') set, and its generator over the
// default config.
type named struct {
	name, title string
	set         byte
	gen         func(sizing) *Dataset
}

var table = []named{
	{"neuron", "Neuron", 's', func(s sizing) *Dataset {
		c := DefaultNeuron()
		s.apply(&c.N, &c.M, &c.Seed)
		return GenNeuron(c)
	}},
	{"neuron2", "Neuron-2", 's', func(s sizing) *Dataset {
		c := DefaultNeuron2()
		s.apply(&c.N, &c.M, &c.Seed)
		return GenNeuron(c)
	}},
	{"bird", "Bird", 's', func(s sizing) *Dataset {
		c := DefaultBird()
		s.apply(&c.N, &c.M, &c.Seed)
		return GenTrajectory(c)
	}},
	{"bird2", "Bird-2", 's', func(s sizing) *Dataset {
		c := DefaultBird2()
		s.apply(&c.N, &c.M, &c.Seed)
		return GenTrajectory(c)
	}},
	{"syn", "Syn", 's', func(s sizing) *Dataset {
		c := DefaultSyn()
		s.apply(&c.N, &c.M, &c.Seed)
		return GenPowerLaw(c)
	}},
	{"uniform", "", 0, func(s sizing) *Dataset {
		c := UniformConfig{N: 1000, M: 10, FieldSize: 1000, Spread: 10, Seed: 1}
		s.apply(&c.N, &c.M, &c.Seed)
		return GenUniform(c)
	}},
	{"onecell", "OneCell", 'a', func(s sizing) *Dataset {
		c := DefaultOneCell()
		s.apply(&c.N, &c.M, &c.Seed)
		return GenOneCell(c)
	}},
	{"sparse", "Sparse", 'a', func(s sizing) *Dataset {
		c := DefaultUniformSparse()
		s.apply(&c.N, &c.M, &c.Seed)
		return GenUniformSparse(c)
	}},
	{"powersize", "PowerSize", 'a', func(s sizing) *Dataset {
		c := DefaultPowerLawSizes()
		s.apply(&c.N, nil, &c.Seed)
		return GenPowerLawSizes(c)
	}},
	{"commute", "Commute", 'a', func(s sizing) *Dataset {
		c := DefaultHotspotCommute()
		s.apply(&c.N, &c.M, &c.Seed)
		return GenHotspotCommute(c)
	}},
}

// Names lists the dataset names ByName accepts, for flag help.
func Names() string {
	names := make([]string, len(table))
	for i, t := range table {
		names[i] = t.name
	}
	return strings.Join(names, ", ")
}

// ByName generates the named dataset (see Names) from its default
// config: the object count is n when positive, otherwise the default
// count times scale with a floor of 8; m, when positive, overrides the
// points per object (powersize, whose sizes follow a distribution,
// ignores it); seed, when non-zero, overrides the RNG seed.
func ByName(name string, scale float64, n, m int, seed int64) (*Dataset, error) {
	for _, t := range table {
		if t.name == name {
			return t.gen(sizing{scale: scale, n: n, m: m, seed: seed}), nil
		}
	}
	return nil, fmt.Errorf("data: unknown dataset %q (want one of %s)", name, Names())
}

// titled generates one set of the table at the given scale, keyed and
// named by title.
func titled(set byte, scale float64) map[string]*Dataset {
	out := map[string]*Dataset{}
	for _, t := range table {
		if t.set != set {
			continue
		}
		ds := t.gen(sizing{scale: scale})
		ds.Name = t.title
		if err := ds.Validate(); err != nil {
			panic(fmt.Sprintf("data: generator %s produced invalid dataset: %v", t.name, err))
		}
		out[t.title] = ds
	}
	return out
}

// Standard returns the five stand-in datasets of DESIGN.md §5 at the
// given scale factor (1.0 = defaults; 0.25 shrinks object counts for
// quick tests). The names follow the paper's Table I.
func Standard(scale float64) map[string]*Dataset { return titled('s', scale) }

// Adversarial returns the four adversarial datasets of DESIGN.md §5
// at the given scale factor (object counts scale like Standard's).
func Adversarial(scale float64) map[string]*Dataset { return titled('a', scale) }
