// Package labeling implements the flow labeling scheme of Katz, Katz, Korman
// and Peleg [42] in the form the paper's MST algorithm needs (§3): a marker
// algorithm that, given a spanning forest F, assigns each vertex a label of
// O(log^2 n) bits, and a decoder that — from two labels alone — returns the
// maximum-weight edge on the path between the two vertices in F (or reports
// that they lie in different trees).
//
// The construction is a centroid decomposition: each vertex stores, for every
// ancestor centroid c in the centroid tree (at most ⌈log2 n⌉ + 1 of them), the
// pair (c, heaviest edge on the F-path from the vertex to c). For any two
// vertices in the same tree, their deepest common centroid-tree ancestor lies
// on the F-path between them, so the path maximum is the heavier of the two
// stored edges for that centroid. Labels have O(log n) entries of O(1) words,
// i.e. O(log^2 n) bits — matching the scheme cited by the paper.
//
// Weight comparisons use the global (W, U, V) tie-breaking order so that the
// "heaviest edge" is unique even with repeated weights.
package labeling

import (
	"hetmpc/internal/graph"
)

// Entry is one centroid record in a label.
type Entry struct {
	Centroid int        // the centroid vertex id
	Level    int        // depth in the centroid tree (root = 0)
	MaxEdge  graph.Edge // heaviest edge on the F-path vertex→centroid; W==0 when vertex==centroid
}

// Label is the per-vertex label: entries ordered by increasing level.
type Label []Entry

// Words returns the label size in machine words (4 words per entry), the
// unit used by the simulator's communication accounting.
func (l Label) Words() int { return 1 + 4*len(l) }

// Labels holds the labels of all vertices of the forest.
type Labels []Label

// Build runs the marker algorithm: it computes labels for the forest given
// by treeEdges over n vertices. Runs in O(n log n).
func Build(n int, treeEdges []graph.Edge) Labels {
	adj := make([][]graph.Half, n)
	deg := make([]int, n)
	for _, e := range treeEdges {
		deg[e.U]++
		deg[e.V]++
	}
	for v := range adj {
		adj[v] = make([]graph.Half, 0, deg[v])
	}
	for _, e := range treeEdges {
		adj[e.U] = append(adj[e.U], graph.Half{To: e.V, W: e.W})
		adj[e.V] = append(adj[e.V], graph.Half{To: e.U, W: e.W})
	}

	labels := make(Labels, n)
	removed := make([]bool, n)
	sc := &scratch{size: make([]int, n), parent: make([]int, n), seen: make([]int, n)}

	// Iterative work list of (piece root, level) pairs; each piece is
	// processed by finding its centroid, labeling the piece from the
	// centroid, removing it and enqueueing the sub-pieces.
	type piece struct {
		root  int
		level int
	}
	stack := make([]piece, 0, n)
	for v := 0; v < n; v++ {
		if removed[v] || len(labels[v]) > 0 {
			continue // already covered by a processed tree
		}
		if len(adj[v]) == 0 {
			labels[v] = Label{{Centroid: v, Level: 0}}
			continue
		}
		// Process v's whole tree: every vertex eventually becomes the
		// centroid of its own piece and is then marked removed.
		stack = append(stack, piece{root: v, level: 0})
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			c := processPiece(p.root, p.level, adj, removed, sc, labels)
			for _, h := range adj[c] {
				if !removed[h.To] {
					stack = append(stack, piece{root: h.To, level: p.level + 1})
				}
			}
			removed[c] = true
		}
	}
	return labels
}

// scratch is the per-vertex working state processPiece reuses across pieces:
// subtree sizes, BFS parents, the BFS order of the current piece, and
// visited marks (seen[v] == stamp marks v as visited by the current BFS).
type scratch struct {
	size, parent, seen []int
	order              []int
	stamp              int
}

// processPiece finds the centroid of the piece containing root (over
// non-removed vertices), appends an entry for it to every vertex of the
// piece, and returns the centroid.
func processPiece(root, level int, adj [][]graph.Half, removed []bool, sc *scratch, labels Labels) int {
	// Collect the piece (BFS order, with parents) and compute subtree sizes
	// bottom-up.
	size, parent := sc.size, sc.parent
	sc.stamp++
	sc.seen[root] = sc.stamp
	parent[root] = -1
	order := append(sc.order[:0], root)
	for i := 0; i < len(order); i++ {
		v := order[i]
		for _, h := range adj[v] {
			if !removed[h.To] && sc.seen[h.To] != sc.stamp {
				sc.seen[h.To] = sc.stamp
				parent[h.To] = v
				order = append(order, h.To)
			}
		}
	}
	sc.order = order
	total := len(order)
	for _, v := range order {
		size[v] = 1
	}
	for i := total - 1; i >= 0; i-- {
		v := order[i]
		if p := parent[v]; p >= 0 {
			size[p] += size[v]
		}
	}
	// Find centroid: vertex minimizing the maximum component size after
	// removal.
	centroid, best := root, total+1
	for _, v := range order {
		worst := total - size[v]
		for _, h := range adj[v] {
			if !removed[h.To] && parent[h.To] == v && size[h.To] > worst {
				worst = size[h.To]
			}
		}
		if worst < best {
			centroid, best = v, worst
		}
	}
	// BFS from the centroid recording the running path-max edge.
	labels[centroid] = append(labels[centroid], Entry{Centroid: centroid, Level: level})
	type qi struct {
		v   int
		max graph.Edge
	}
	queue := []qi{{v: centroid}}
	sc.stamp++
	sc.seen[centroid] = sc.stamp
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, h := range adj[cur.v] {
			if removed[h.To] || sc.seen[h.To] == sc.stamp {
				continue
			}
			sc.seen[h.To] = sc.stamp
			edge := graph.NewEdge(cur.v, h.To, h.W)
			m := cur.max
			if m.W == 0 || m.Less(edge) {
				m = edge
			}
			labels[h.To] = append(labels[h.To], Entry{Centroid: centroid, Level: level, MaxEdge: m})
			queue = append(queue, qi{v: h.To, max: m})
		}
	}
	return centroid
}

// Decode is the decoder algorithm D_flow: given the labels of u and v it
// returns the heaviest edge on the F-path between them and connected=true,
// or connected=false if they lie in different trees of F. Decoding uses only
// the two labels.
func Decode(lu, lv Label) (maxEdge graph.Edge, connected bool) {
	// Find the common centroid with the greatest level: that is the
	// centroid-tree LCA, which lies on the F-path u-v.
	bestLevel := -1
	var eu, ev graph.Edge
	same := false
	for _, a := range lu {
		for _, b := range lv {
			if a.Centroid == b.Centroid && a.Level > bestLevel {
				bestLevel = a.Level
				eu, ev = a.MaxEdge, b.MaxEdge
				same = true
			}
		}
	}
	if !same {
		return graph.Edge{}, false
	}
	// u == v case: both path maxima are zero.
	if eu.W == 0 {
		return ev, true
	}
	if ev.W == 0 {
		return eu, true
	}
	if eu.Less(ev) {
		return ev, true
	}
	return eu, true
}

// FLight reports whether edge e is F-light with respect to the forest whose
// labels are given: e is F-light if its endpoints are in different trees, or
// if e is not heavier than the heaviest edge on the F-path between its
// endpoints (§3: F-heavy edges cannot be MST edges).
func FLight(e graph.Edge, lu, lv Label) bool {
	maxEdge, connected := Decode(lu, lv)
	if !connected {
		return true
	}
	if maxEdge.W == 0 {
		// endpoints coincide in F's labeling — cannot happen for a real edge
		return false
	}
	// e is F-heavy iff e is strictly heavier than every edge on the path,
	// i.e. the path max is Less than e.
	return !maxEdge.Less(graph.NewEdge(e.U, e.V, e.W))
}
