package soak

import (
	"testing"
)

// Both substrates must come through the indexed churn soak with zero
// acked-write loss via graceful hand-off.
func TestRunSubstrateZeroAckedWriteLoss(t *testing.T) {
	for _, substrate := range []string{"chord", "pastry"} {
		substrate := substrate
		t.Run(substrate, func(t *testing.T) {
			t.Parallel()
			rep, err := RunSubstrate(SubstrateConfig{
				Substrate: substrate,
				Nodes:     32,
				Articles:  12,
				Ops:       60,
				Seed:      11,
			})
			if err != nil {
				t.Fatalf("soak: %v (report %+v)", err, rep)
			}
			if !rep.Passed() {
				t.Fatalf("soak gates failed: %v", rep.Violations)
			}
			if rep.Queries == 0 || rep.Found == 0 {
				t.Fatalf("no queries resolved: %+v", rep)
			}
			if rep.Joins == 0 || rep.Leaves == 0 {
				t.Fatalf("churn did not run: %+v", rep)
			}
			if rep.MeanLookupHops <= 0 {
				t.Fatalf("no hop accounting: %+v", rep)
			}
		})
	}
}

func TestRunSubstrateUnknown(t *testing.T) {
	for _, substrate := range []string{"can", "kademlia"} {
		if _, err := RunSubstrate(SubstrateConfig{Substrate: substrate}); err == nil {
			t.Fatalf("unknown substrate %q accepted", substrate)
		}
	}
}
