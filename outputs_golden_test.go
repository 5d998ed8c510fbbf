package hetmpc_test

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"hetmpc"
)

// outputDigest is the FNV-64a hash of a Table-1 call's output fields — every
// exported field of its result but Stats, printed with %v in declaration
// order (a bare slice result is its own one field) — and size, the summed
// length of those fields that are slices.
func outputDigest(out any) (size int, sum uint64) {
	h := fnv.New64a()
	v := reflect.Indirect(reflect.ValueOf(out))
	field := func(name string, f reflect.Value) {
		if f.Kind() == reflect.Slice {
			size += f.Len()
		}
		fmt.Fprintf(h, "%s=%v;", name, f.Interface())
	}
	if v.Kind() == reflect.Struct {
		for j := 0; j < v.NumField(); j++ {
			if name := v.Type().Field(j).Name; name != "Stats" && v.Type().Field(j).IsExported() {
				field(name, v.Field(j))
			}
		}
	} else {
		field("", v)
	}
	return size, h.Sum64()
}

// TestTable1OutputsGolden pins the outputs of all twelve Table-1 calls (n=512
// m=4096 seed 7), not their Stats: each call's output size and hash. A change
// to how an algorithm reads its plan's answers, or keeps its per-vertex
// state, must leave every one of them bit-identical.
func TestTable1OutputsGolden(t *testing.T) {
	want := map[string]struct {
		size int
		sum  uint64
	}{
		"sublinear.cc":       {512, 0x1f1302d34506ef05},
		"core.cc":            {512, 0xd4d737704d261d65},
		"sublinear.mst":      {511, 0x4eaad0fa78b87a54},
		"core.mst":           {511, 0x32e8c5572e4308bd},
		"sublinear.spanner":  {3113, 0xfeea299bba254a4e},
		"core.spanner":       {707, 0x03b0702b49805f69},
		"sublinear.coloring": {512, 0xdb3d285209eb2fb6},
		"core.coloring":      {512, 0x0551f48e48186394},
		"sublinear.mis":      {94, 0x68a0726ce3d5c06a},
		"core.mis":           {89, 0xc9fa09115d1c68b7},
		"sublinear.matching": {246, 0x6513f31c791e01b2},
		"core.matching":      {248, 0x07b4305c43d248a1},
	}
	for _, call := range table1Calls() {
		c, err := hetmpc.NewCluster(hetmpc.Config{N: 512, M: 4096, Seed: 7, NoLarge: call.noLarge})
		if err != nil {
			t.Fatal(err)
		}
		out, err := call.run(c)
		if err != nil {
			t.Fatalf("%s: %v", call.name, err)
		}
		size, sum := outputDigest(out)
		if w := want[call.name]; size != w.size || sum != w.sum {
			t.Errorf("%s: output size %d hash %#x, want %d %#x", call.name, size, sum, w.size, w.sum)
		}
	}
}
