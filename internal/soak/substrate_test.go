package soak

import (
	"testing"
)

// Every substrate must come through the indexed churn soak with zero
// acked-write loss: Chord and Pastry via graceful hand-off, Kademlia
// via replication + republish absorbing hard crashes.
func TestRunSubstrateZeroAckedWriteLoss(t *testing.T) {
	for _, substrate := range []string{"chord", "pastry", "kademlia"} {
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
			if substrate == "kademlia" {
				if rep.Crashes == 0 {
					t.Fatalf("kademlia soak fired no crashes: %+v", rep)
				}
				if rep.MaintenanceItems == 0 {
					t.Fatalf("kademlia soak republished nothing: %+v", rep)
				}
			}
			if rep.MeanLookupHops <= 0 {
				t.Fatalf("no hop accounting: %+v", rep)
			}
		})
	}
}

func TestRunSubstrateUnknown(t *testing.T) {
	if _, err := RunSubstrate(SubstrateConfig{Substrate: "can"}); err == nil {
		t.Fatal("unknown substrate accepted")
	}
}
