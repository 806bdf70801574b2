package mio

import "mio/internal/data"

// Generator configurations for the synthetic stand-in datasets
// (DESIGN.md §5). Each mirrors the shape of one dataset from the
// paper's Table I.
type (
	// NeuronConfig parameterises neuron-like objects: clustered somata
	// emitting branching 3-D arbors.
	NeuronConfig = data.NeuronConfig
	// TrajectoryConfig parameterises bird-like planar sub-trajectories
	// with leader-follower flocks.
	TrajectoryConfig = data.TrajectoryConfig
	// PowerLawConfig parameterises the Syn stand-in whose score
	// distribution follows a power law.
	PowerLawConfig = data.PowerLawConfig
	// UniformConfig parameterises a skew-free control dataset.
	UniformConfig = data.UniformConfig
)

// Default generator configurations matching the paper's dataset shapes
// at laptop scale.
func DefaultNeuronConfig() NeuronConfig    { return data.DefaultNeuron() }
func DefaultNeuron2Config() NeuronConfig   { return data.DefaultNeuron2() }
func DefaultBirdConfig() TrajectoryConfig  { return data.DefaultBird() }
func DefaultBird2Config() TrajectoryConfig { return data.DefaultBird2() }
func DefaultSynConfig() PowerLawConfig     { return data.DefaultSyn() }

// GenerateNeuron generates neuron-like objects.
func GenerateNeuron(cfg NeuronConfig) *Dataset { return data.GenNeuron(cfg) }

// GenerateTrajectory generates trajectory-like objects.
func GenerateTrajectory(cfg TrajectoryConfig) *Dataset { return data.GenTrajectory(cfg) }

// GeneratePowerLaw generates power-law-score objects.
func GeneratePowerLaw(cfg PowerLawConfig) *Dataset { return data.GenPowerLaw(cfg) }

// GenerateUniform generates uniformly spread objects.
func GenerateUniform(cfg UniformConfig) *Dataset { return data.GenUniform(cfg) }

// StandardDatasets returns the five stand-in datasets of the paper's
// Table I (Neuron, Neuron-2, Bird, Bird-2, Syn) scaled by the given
// factor (1.0 = the laptop-scale defaults).
func StandardDatasets(scale float64) map[string]*Dataset { return data.Standard(scale) }

// Adversarial generator configurations (DESIGN.md §5): shapes the
// paper's five datasets do not cover.
type (
	// OneCellConfig parameterises the all-in-one-cell stress.
	OneCellConfig = data.OneCellConfig
	// UniformSparseConfig parameterises the planar uniform-sparse stress.
	UniformSparseConfig = data.UniformSparseConfig
	// PowerLawSizesConfig parameterises the power-law object-size stress.
	PowerLawSizesConfig = data.PowerLawSizesConfig
	// HotspotCommuteConfig parameterises the hotspot-commute mobility mix.
	HotspotCommuteConfig = data.HotspotCommuteConfig
)

// GenerateOneCell generates the all-in-one-cell dataset.
func GenerateOneCell(cfg OneCellConfig) *Dataset { return data.GenOneCell(cfg) }

// GenerateUniformSparse generates the planar uniform-sparse dataset.
func GenerateUniformSparse(cfg UniformSparseConfig) *Dataset { return data.GenUniformSparse(cfg) }

// GeneratePowerLawSizes generates the power-law object-size dataset.
func GeneratePowerLawSizes(cfg PowerLawSizesConfig) *Dataset { return data.GenPowerLawSizes(cfg) }

// GenerateHotspotCommute generates the hotspot-commute dataset.
func GenerateHotspotCommute(cfg HotspotCommuteConfig) *Dataset { return data.GenHotspotCommute(cfg) }

// AdversarialDatasets returns the four adversarial datasets of
// DESIGN.md §5 (OneCell, Sparse, PowerSize, Commute) scaled by the
// given factor.
func AdversarialDatasets(scale float64) map[string]*Dataset { return data.Adversarial(scale) }

// WithTimestamps stamps every point of ds with synthetic generation
// times for use with TemporalEngine: each object's points are stamped
// sequentially with the given tick from a random offset in [0, horizon).
func WithTimestamps(ds *Dataset, tick, horizon float64, seed int64) *Dataset {
	return data.WithTimestamps(ds, tick, horizon, seed)
}
