package mpc

import "hetmpc/internal/trace"

// Span is a phase-scoped measurement window opened by Cluster.Span. It
// replaces the hand-rolled `before := c.Stats()` / diff pattern: End
// returns the Stats delta accumulated inside the scope, and — when the
// cluster has a trace collector or a metrics registry — every makespan
// contribution charged inside the scope carries the span's "/"-joined path
// (the record's Phase, the registry's phase label).
//
// Spans nest: a round is attributed to the innermost open span, so the
// per-phase sums of a trace partition the totals instead of double-counting
// the way nested before/diff snapshots did. End closes every span opened
// inside the scope as well (by depth), so an error return that skipped an
// inner End cannot corrupt the attribution of later rounds; ending with
// `defer sp.End()` (or a defer that consumes the delta) is always safe.
type Span struct {
	c      *Cluster
	before Stats
	depth  int
	ended  bool
	delta  Stats
}

// Span opens a phase scope named name and returns its handle. On a bare
// cluster the span only measures (End returns the Stats delta) at zero cost
// to the simulation; with an observer attached it additionally extends the
// path every record charged before End is stamped with.
func (c *Cluster) Span(name string) *Span {
	s := &Span{c: c, before: c.stats}
	if c.tr != nil || c.cfg.Metrics != nil {
		s.depth = len(c.spanEnds)
		if c.phase != "" {
			c.phase += "/"
		}
		c.phase += name
		c.spanEnds = append(c.spanEnds, len(c.phase))
	}
	return s
}

// End closes the span and returns the Stats accumulated inside it
// (Stats.Sub: deltas of the additive fields, the cluster's current running
// maxima). End is idempotent — the first call fixes the delta and later
// calls return it.
func (s *Span) End() Stats {
	if s.ended {
		return s.delta
	}
	s.ended = true
	c := s.c
	if s.depth < len(c.spanEnds) {
		// Close by depth, not one pop: the path is a prefix of itself at
		// every shallower depth, so spans leaked inside the scope go too.
		c.spanEnds = c.spanEnds[:s.depth]
		end := 0
		if s.depth > 0 {
			end = c.spanEnds[s.depth-1]
		}
		c.phase = c.phase[:end]
	}
	s.delta = c.stats.Sub(s.before)
	return s.delta
}

// Phase returns the "/"-joined path of the open spans: "" when none is
// open, and always on a cluster with neither collector nor registry.
func (c *Cluster) Phase() string { return c.phase }

// Trace returns the cluster's trace collector (Config.Trace), nil when the
// run is untraced.
func (c *Cluster) Trace() *trace.Collector { return c.tr }
