package server

import (
	"sync"
	"sync/atomic"
)

type View struct {
	Spectrum []float64
	Drift    float64
}

type PublishedResult struct {
	Version  uint64
	Spectrum []float64
	View     View
	body     []byte
	once     sync.Once
}

type tenant struct {
	pub atomic.Pointer[PublishedResult]
}

// Constructor writes before the Store are the point of a constructor.
func okConstructor(t *tenant, spectrum []float64) {
	p := &PublishedResult{Version: 1}
	p.Spectrum = spectrum
	t.pub.Store(p)
}

// Writes after the Store race with lock-free readers.
func badAfterStore(t *tenant, spectrum []float64) {
	p := &PublishedResult{Version: 1}
	t.pub.Store(p)
	p.Version = 2     // want `field write to PublishedResult after the atomic Store`
	p.Spectrum[0] = 1 // want `element store into a slice of PublishedResult after the atomic Store`
	_ = spectrum
}

// Publishing a view hands its slices to the result; nothing is written.
func okPublishView(t *tenant, view View) {
	t.pub.Store(&PublishedResult{Version: 1, View: view})
}

// Writes into a struct the result holds are writes into the result.
func badNestedWrites(t *tenant, view View) {
	p := &PublishedResult{Version: 1, View: view}
	p.View.Drift = 1 // before the Store: still the constructor
	t.pub.Store(p)
	p.View.Drift = 2       // want `field write to PublishedResult after the atomic Store`
	p.View.Spectrum[0] = 1 // want `element store into a slice of PublishedResult after the atomic Store`
}

func badNestedAlias(p *PublishedResult) {
	s := p.View.Spectrum
	s[0] = 1 // want `element store \(through an alias\) into a slice of PublishedResult outside its constructor`
}

// Any write outside a constructor mutates a potentially-published value.
func badOutsideConstructor(p *PublishedResult) {
	p.Version = 2 // want `field write to PublishedResult outside its constructor`
}

func badAliasStore(p *PublishedResult) {
	s := p.Spectrum
	s[0] = 1 // want `element store \(through an alias\) into a slice of PublishedResult outside its constructor`
}

// The sync.Once lazy-render path is the sanctioned post-publication
// write (the publication barrier is the Once).
func okLazyRender(p *PublishedResult) []byte {
	p.once.Do(func() {
		p.body = []byte("rendered")
	})
	return p.body
}

// Reads are always fine.
func okRead(p *PublishedResult) float64 {
	if len(p.Spectrum) == 0 {
		return 0
	}
	return p.Spectrum[0]
}

// Writes to unrelated types stay out of scope.
type scratch struct{ vals []float64 }

func okOtherType(s *scratch) {
	s.vals = append(s.vals, 1)
	s.vals[0] = 2
}
