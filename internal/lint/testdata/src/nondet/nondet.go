// Package nondet is the hetlint nondet fixture: ambient nondeterminism
// (wall-clock, global rand, environment, CPU shape, package state written
// outside init) is banned from engine packages.
package nondet

import (
	"math/rand"
	"os"
	"runtime"
	"time"
)

func clock() time.Duration {
	start := time.Now()      // want `time.Now is nondeterministic`
	return time.Since(start) // want `time.Since is nondeterministic`
}

func deadline(t time.Time) time.Duration {
	return time.Until(t) // want `time.Until is nondeterministic`
}

func globalRand() int {
	return rand.Intn(10) // want `global rand.Intn draws from the shared process-wide source`
}

// seeded streams are the sanctioned path: rand.New/NewSource construct, the
// draw happens on the stream's methods.
func seeded(seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(10)
}

func env() string {
	return os.Getenv("HETMPC_DEBUG") // want `engine behavior must be a function of Config`
}

func cpus() int {
	return runtime.NumCPU() // want `bit-identical across CPU counts`
}

// workers carries the justified escape: pool sizing that cannot reach the
// modeled stats.
func workers() int {
	//hetlint:nondet worker-pool sizing only; outputs are pinned bit-identical by the GOMAXPROCS golden sweeps
	return 2*runtime.GOMAXPROCS(0) + 2
}

// Package state: initializers and init may fill it, nothing else may write it.
var (
	verbose bool
	calls   int
	limits  = map[string]int{"small": 1}
	tracker struct{ active bool }
	current *int
	memo    []int
)

func init() {
	verbose = false
	limits["large"] = 2
}

func setVerbose(on bool) {
	verbose = on // want `write to package-level variable verbose outside init`
}

func count() {
	calls++    // want `write to package-level variable calls outside init`
	calls += 2 // want `write to package-level variable calls outside init`
}

func throughLayers(i int) {
	limits["small"] = i      // want `write to package-level variable limits outside init`
	tracker.active = true    // want `write to package-level variable tracker outside init`
	*current = i             // want `write to package-level variable current outside init`
	for calls = range memo { // want `write to package-level variable calls outside init`
	}
}

// reads, locals that shadow a package name and := are not writes.
func readsAndLocals() int {
	calls := limits["small"]
	calls++
	var tracker struct{ active bool }
	tracker.active = verbose
	return calls
}

// memoize carries the justified escape.
func memoize() {
	//hetlint:nondet idempotent cache of a pure function of constants; every writer stores the same slice
	memo = []int{1, 2, 3}
}

// bareWaiver shows that a justification-free comment does not suppress.
func bareWaiver() {
	//hetlint:nondet
	calls = 0 // want `carries no justification`
}

var _ = []any{clock, deadline, globalRand, seeded, env, cpus, workers, setVerbose, count, throughLayers, readsAndLocals, memoize, bareWaiver}
