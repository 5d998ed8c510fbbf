package core

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
)

// runPrefixes is what the small machines held of the replies a collection
// returned: at each position p of arr.Keys, the first len(got[p]) items of
// the key's run, which is contiguous in machine order. A reply carries no
// key, and the large machine places it by the query that asked for it, so
// runPrefixes also checks the placement: every position holds none or
// min(b, degree) items of its own key's run, b the one budget the
// collection asked of every key it queried.
func runPrefixes[T, S any](t *testing.T, site string, arr *prims.Arranged[T], key func(T) int64, got [][]S) [][]T {
	t.Helper()
	b := 0
	for _, items := range got {
		b = max(b, len(items))
	}
	flat, held := prims.Flatten(arr.Data), make([][]T, len(arr.Keys))
	for p, k := range arr.Keys {
		if n, deg := len(got[p]), arr.Degree(p); n != 0 && n != min(b, deg) {
			t.Fatalf("%s: key %d of degree %d holds %d items, want none or %d", site, k, deg, n, min(b, deg))
		}
		at, _ := slices.BinarySearchFunc(flat, k, func(it T, k int64) int { return cmp.Compare(key(it), k) })
		held[p] = flat[at:min(at+len(got[p]), len(flat))]
		if len(held[p]) > 0 && key(held[p][len(held[p])-1]) != k {
			t.Fatalf("%s: key %d holds %d items, past its run", site, k, len(got[p]))
		}
	}
	return held
}

// TestLargeMachineRebuildsShippedRecords: every record the large machine
// receives without the fields it can rebuild equals, once rebuilt, the
// record the small machine held — MST's collected replies (oriented by the
// key of the query that asked for them, each placed at that query's
// position, runPrefixes; an arc holds no head, so a reply is compared on
// the fields its arc holds), KKT sample and F-light edges (U, V under the
// union-find; on a superlinear large machine too), the spanner's direct and
// sampled edges (level and cluster ids from σ and the degrees) and
// matching's hub replies (the edge alone, placed as MST's are) — on a GNM
// graph, E7's planted hubs, a weighted graph with repeated weights and
// TestLocalPathsGolden's spanner-sampled graph, whose spanner has sampled
// levels. Each gather is seen at least once over the four. Connectivity
// rebuilds no record: the large machine adds the incidences it receives
// into Borůvka's sums (TestConnectivityContractionGolden).
func TestLargeMachineRebuildsShippedRecords(t *testing.T) {
	repeated := graph.GNM(512, 4096, 11)
	for j := range repeated.Edges {
		repeated.Edges[j].W = int64(1 + j%7)
	}
	repeated.Weighted = true
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm", graph.GNM(512, 4096, 7)},
		{"hubs", graph.PlantedHubs(600, 4, 4, 500, 7+500)},
		{"repeated-weights", repeated},
		{"spanner-sampled", graph.ConnectedGNM(1024, 65536, 7, false)},
	}
	sites := []string{"mst/reply", "mst/sample", "mst/light", "spanner/direct", "spanner/sampled", "matching/reply"}
	seen := make([]int, len(sites))
	onRebuild = func(site string, held, got any) {
		var want any
		switch h := held.(type) {
		case *prims.Arranged[arc]:
			// An arc holds no head: the rebuilt edge must agree with it on
			// every field it holds.
			want = runPrefixes(t, site, h, func(a arc) int64 { return int64(a.U) }, got.([][]cEdge))
			edges := got.([][]cEdge)
			arcs := make([][]arc, len(edges))
			for p, es := range edges {
				for _, e := range es {
					arcs[p] = append(arcs[p], arc{U: e.U, W: e.W, OU: e.OU, OV: e.OV})
				}
			}
			got = arcs
		case *prims.Arranged[rankedEdge]:
			replies := got.([][]graph.Edge)
			prefixes := runPrefixes(t, site, h, func(re rankedEdge) int64 { return int64(re.Src) }, replies)
			edges := make([][]graph.Edge, len(prefixes))
			for p, res := range prefixes {
				for _, re := range res {
					if int64(re.Src) != h.Keys[p] || re.E.U != int(re.Src) && re.E.V != int(re.Src) {
						t.Fatalf("%s: key %d holds %+v, not one of its edges", site, h.Keys[p], re)
					}
					edges[p] = append(edges[p], re.E)
				}
			}
			want = edges
		case [][]cEdge:
			want = prims.Flatten(h)
		case [][]lvlEdge:
			want = prims.Flatten(h)
		case [][]sampledEdge:
			want = prims.Flatten(h)
		default:
			t.Fatalf("%s: held records of type %T", site, held)
		}
		if !reflect.DeepEqual(normalize(want), normalize(got)) {
			t.Errorf("%s: the large machine rebuilt records that differ from those held", site)
		}
		at := slices.Index(sites, site)
		if at < 0 {
			t.Fatalf("records rebuilt at an unknown site %s", site)
		}
		seen[at] += reflect.ValueOf(got).Len()
	}
	defer func() { onRebuild = nil }()
	for _, w := range graphs {
		c := newCluster(t, w.g.N, w.g.M(), 7)
		// A superlinear large machine stops contracting early, so its KKT
		// sample and F-light edges are most of the graph.
		super, err := mpc.New(mpc.Config{N: w.g.N, M: w.g.M(), F: 0.3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*mpc.Cluster{c, super} {
			mst, err := MST(c, w.g)
			if err != nil {
				t.Fatal(err)
			}
			if err := graph.CheckMST(w.g, mst.Edges); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
		}
		if _, err := Spanner(c, w.g, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := MaximalMatching(c, w.g); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("records rebuilt at %v: %v", sites, seen)
	for at, site := range sites {
		if seen[at] == 0 {
			t.Errorf("no record was rebuilt at %s", site)
		}
	}
}

// normalize maps a nil and an empty list of lists alike.
func normalize(x any) any {
	v := reflect.ValueOf(x)
	if v.Kind() != reflect.Slice || v.Type().Elem().Kind() != reflect.Slice {
		if v.Len() == 0 {
			return nil
		}
		return x
	}
	out := make([]any, v.Len())
	for p := range out {
		if v.Index(p).Len() > 0 {
			out[p] = v.Index(p).Interface()
		}
	}
	return out
}
