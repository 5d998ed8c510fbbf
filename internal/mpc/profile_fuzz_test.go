package mpc

import (
	"reflect"
	"testing"
)

// FuzzParseProfile fuzzes the machine-profile spec grammar (DESIGN.md §6):
// ParseProfile must never panic, every accepted profile must already be
// valid for the cluster it was parsed for (degenerate numeric arguments —
// NaN slow fractions, overflowing zipf exponents, subnormal bimodal factors
// whose costs underflow to 0 — are spec errors, not deferred New failures), and
// re-parsing the spec must reproduce an identical profile.
func FuzzParseProfile(f *testing.F) {
	for _, seed := range []string{
		"", "uniform",
		"zipf:0.8", "zipf:1.2:0.1", "zipf:-1e308", "zipf:NaN",
		"bimodal:0.25:4", "bimodal:NaN:4", "bimodal:2:4", "bimodal:0.5:1e-320",
		"straggler:2:8", "straggler:1e300:2", "straggler:2:1e-320", "straggler:0.5:2",
		"custom:0=0.5,3=0.25", "custom:0=0.5,0=2", "custom:9=2", "custom:0=NaN",
		"bogus:1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		for _, k := range []int{3, 8} {
			p, err := ParseProfile(spec, k)
			if err != nil {
				if p != nil {
					t.Fatalf("ParseProfile(%q, %d) returned a profile alongside error %v", spec, k, err)
				}
				continue
			}
			if p == nil {
				// Only the default forms may resolve to the nil profile.
				if spec != "" && spec != "uniform" {
					t.Fatalf("ParseProfile(%q, %d) silently resolved to the nil default profile", spec, k)
				}
				continue
			}
			// Accepted ⇒ valid for this cluster, right now — not at New time.
			if verr := p.validate(k); verr != nil {
				t.Fatalf("ParseProfile(%q, %d) accepted an invalid profile: %v", spec, k, verr)
			}
			p2, err := ParseProfile(spec, k)
			if err != nil {
				t.Fatalf("ParseProfile(%q, %d) accepted, but does not re-parse: %v", spec, k, err)
			}
			if !reflect.DeepEqual(p, p2) {
				t.Fatalf("ParseProfile(%q, %d) round trip diverged:\n first %#v\nsecond %#v", spec, k, p, p2)
			}
		}
	})
}
