// Command graphgen writes workload graphs in the repository's text format,
// which cmd/hetrun -input reads back.
//
// Usage:
//
//	graphgen -gen gnm -n 1024 -m 8192 -weighted -o g.txt
//	graphgen -gen cycles2 -n 4096 > two-cycles.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hetmpc"
	"hetmpc/internal/graph"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		gen      = flag.String("gen", "gnm", "generator: gnm, connected, cycles, cycles2, hubs, cut, grid, star, complete")
		n        = flag.Int("n", 1024, "vertices")
		m        = flag.Int("m", 8192, "edges (where applicable)")
		seed     = flag.Uint64("seed", 1, "seed")
		weighted = flag.Bool("weighted", false, "assign unique integer weights")
		out      = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	var g *hetmpc.Graph
	switch *gen {
	case "gnm":
		if *weighted {
			g = hetmpc.GNMWeighted(*n, *m, *seed)
		} else {
			g = hetmpc.GNM(*n, *m, *seed)
		}
	case "connected":
		g = hetmpc.ConnectedGNM(*n, *m, *seed, *weighted)
	case "cycles":
		g = hetmpc.Cycles(*n, 1, *seed)
	case "cycles2":
		g = hetmpc.Cycles(*n, 2, *seed)
	case "hubs":
		g = hetmpc.PlantedHubs(*n, 4, 4, *n/2, *seed)
	case "cut":
		g = hetmpc.PlantedCut(*n, *m/2, 3, *seed, *weighted)
	case "grid":
		r := 1
		for r*r < *n {
			r++
		}
		g = hetmpc.Grid(r, r)
	case "star":
		g = hetmpc.Star(*n)
	case "complete":
		g = hetmpc.Complete(*n, *weighted, *seed)
	default:
		fmt.Fprintf(os.Stderr, "graphgen: unknown generator %q\n", *gen)
		return 2
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		fh, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			return 1
		}
		defer fh.Close()
		w = fh
	}
	if err := graph.Write(w, g); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "graphgen: n=%d m=%d Δ=%d weighted=%v\n", g.N, g.M(), g.MaxDegree(), g.Weighted)
	return 0
}
