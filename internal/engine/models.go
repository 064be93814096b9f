package engine

import (
	"fmt"
	"slices"
	"sync"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/scenario"
)

// modelMemoSize bounds the resolved-model memo. Scenario generation is a
// pure function of (name, seed), so the memo only saves work; a handful
// of entries covers every scenario a process works on at once, while a
// stream of distinct seeds cannot grow it.
const modelMemoSize = 8

// modelKey identifies one scenario resolution.
type modelKey struct {
	scenario string
	seed     uint64
}

// resolvedModel is a resolved fault set with its display name and the
// independent development process over it. It is shared by every run and
// cached result over the same model: the fault set has no mutators, and
// the process builds its lazy sparse and batch state behind sync.Once.
type resolvedModel struct {
	key  modelKey
	once sync.Once // generates fs, name and err
	fs   *faultmodel.FaultSet
	name string
	err  error

	procOnce sync.Once
	proc     *devsim.IndependentProcess
}

// generate resolves the model's scenario on first call; later and
// concurrent calls wait for that first generation and share it.
func (m *resolvedModel) generate() {
	m.once.Do(func() {
		sc, err := scenario.ByName(m.key.scenario, m.key.seed)
		if err != nil {
			m.err = fmt.Errorf("engine: %w", err)
			return
		}
		m.fs, m.name = sc.FaultSet, sc.Name
	})
}

// independent returns the paper's independent development process over
// the model, built once, so its equal-p groups and batch thresholds are
// computed once per model rather than once per run.
func (m *resolvedModel) independent() *devsim.IndependentProcess {
	m.procOnce.Do(func() { m.proc = devsim.NewIndependentProcess(m.fs) })
	return m.proc
}

// modelMemo is a goroutine-safe, fixed-capacity LRU of resolved scenario
// models.
type modelMemo struct {
	mu      sync.Mutex
	entries []*resolvedModel // most recently used first
}

// sharedModels is the process-wide memo behind ModelSpec.Resolve and
// every Engine.
var sharedModels = &modelMemo{}

// get returns the model for the scenario and seed, generating it on the
// first request for the key. hit reports that the key was already
// present, possibly still generating for a concurrent first caller.
func (c *modelMemo) get(name string, seed uint64) (m *resolvedModel, hit bool) {
	if scenario.SeedIgnored(name) {
		seed = 0
	}
	key := modelKey{scenario: name, seed: seed}
	c.mu.Lock()
	i := slices.IndexFunc(c.entries, func(e *resolvedModel) bool { return e.key == key })
	if hit = i >= 0; hit {
		m = c.entries[i]
	} else {
		m = &resolvedModel{key: key}
		if len(c.entries) < modelMemoSize {
			c.entries = append(c.entries, nil)
		}
		i = len(c.entries) - 1 // the slot to drop: empty, or the least recently used
	}
	copy(c.entries[1:i+1], c.entries[:i])
	c.entries[0] = m
	c.mu.Unlock()
	m.generate()
	return m, hit
}
