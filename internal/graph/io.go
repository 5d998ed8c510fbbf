package graph

import (
	"bufio"
	"fmt"
	"io"
)

// Write emits the graph in the repository's plain text format:
//
//	hetmpc-graph <n> <m> <weighted:0|1>
//	<u> <v> <w>      (one line per edge)
//
// The format is consumed by Read and by cmd/hetrun -input.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	weighted := 0
	if g.Weighted {
		weighted = 1
	}
	if _, err := fmt.Fprintf(bw, "hetmpc-graph %d %d %d\n", g.N, len(g.Edges), weighted); err != nil {
		return err
	}
	for _, e := range g.Edges {
		if _, err := fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a graph written by Write. It takes outside input, so it
// refuses — never silently repairs — a header whose weighted flag is not 0
// or 1, an endpoint outside the n vertices, a non-positive weight, and edges
// that graph.New would drop (a self-loop or a repeated pair), which would
// leave fewer than the m edges the header declares. The edge list grows as
// it is read, so a huge declared m costs nothing up front.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var (
		magic    string
		n, m, wf int
	)
	if _, err := fmt.Fscan(br, &magic, &n, &m, &wf); err != nil {
		return nil, fmt.Errorf("graph: bad header: %w", err)
	}
	if magic != "hetmpc-graph" {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: negative dimensions")
	}
	if wf != 0 && wf != 1 {
		return nil, fmt.Errorf("graph: weighted flag %d, want 0 or 1", wf)
	}
	var edges []Edge
	for i := 0; i < m; i++ {
		var u, v int
		var w int64
		if _, err := fmt.Fscan(br, &u, &v, &w); err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge %d endpoints out of range", i)
		}
		if w < 1 {
			return nil, fmt.Errorf("graph: edge %d has non-positive weight", i)
		}
		edges = append(edges, NewEdge(u, v, w))
	}
	g := New(n, edges, wf == 1)
	if g.M() != m {
		return nil, fmt.Errorf("graph: %d of the %d declared edges are self-loops or repeats", m-g.M(), m)
	}
	return g, nil
}
