package obs

import "sync/atomic"

// PublishEvery is the pending-work threshold of a Tally, in steps plus
// activations: an engine publishes its tally once the work recorded since
// the last publication reaches it. A step of PublishEvery activations or more
// (a Θ(n) step at n >= PublishEvery) therefore publishes every step, while
// one-node steps publish about every PublishEvery/2 steps.
const PublishEvery = 4096

// Tally holds an engine's per-step counters in plain words between
// publications, so a step pays a few register adds instead of one atomic add
// per counter. The engine folds it into its Metrics set with Publish at every
// boundary where the set is read — the return of a run loop, fault injection,
// snapshot, Close and the engine's Metrics accessor — and whenever Add
// reports that the pending work reached PublishEvery. The zero value is empty.
//
// A Tally belongs to the goroutine driving its engine; it is not safe for
// concurrent use.
type Tally struct {
	Steps, Activated, Evaluated, Changes uint64
	FrontierSkips, Settled               uint64
	WordSteps, BoundaryApplies           uint64
	CoinDraws                            uint64
}

// Add records one completed step that activated act nodes, evaluated eval of
// them and changed chg (activations not evaluated are frontier skips). It
// reports whether the pending work has reached PublishEvery.
func (t *Tally) Add(act, eval, chg int) bool {
	t.Steps++
	t.Activated += uint64(act)
	t.Evaluated += uint64(eval)
	t.Changes += uint64(chg)
	t.FrontierSkips += uint64(act - eval)
	return t.Steps+t.Activated >= PublishEvery
}

// Publish folds the pending counts into m and empties the tally. When a step
// is pending it also stores the gauges — Rounds, and FrontierSize unless
// frontier is negative — which the caller reads between steps, so they carry
// the values after the last completed step. With no step pending the gauges
// are left alone: they already hold those values.
func (t *Tally) Publish(m *Metrics, rounds, frontier int) {
	if t.Steps != 0 {
		m.Steps.Add(t.Steps)
		m.Rounds.Store(uint64(rounds))
		m.Activated.Add(t.Activated)
		m.Evaluated.Add(t.Evaluated)
		m.Changes.Add(t.Changes)
		if frontier >= 0 {
			m.FrontierSize.Store(uint64(frontier))
		}
	}
	addNonZero(&m.FrontierSkips, t.FrontierSkips)
	addNonZero(&m.Settled, t.Settled)
	addNonZero(&m.WordSteps, t.WordSteps)
	addNonZero(&m.BoundaryApplies, t.BoundaryApplies)
	addNonZero(&m.CoinDraws, t.CoinDraws)
	*t = Tally{}
}

// addNonZero skips the atomic add of an empty count.
func addNonZero(c *atomic.Uint64, n uint64) {
	if n != 0 {
		c.Add(n)
	}
}
