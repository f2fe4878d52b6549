package cluster

import (
	"hash/fnv"
	"testing"

	"olympian/internal/obs"
)

// promFingerprint hashes a recorder's merged Prometheus exposition.
func promFingerprint(t *testing.T, rec *obs.Recorder) uint64 {
	t.Helper()
	_, prom := renderObs(t, rec)
	h := fnv.New64a()
	h.Write([]byte(prom))
	return h.Sum64()
}

// TestShardedGoldenRuns pins fixed DNN scenarios to recorded values: the
// headline counts, the routing decision hash and a fingerprint of the
// merged metrics. Refactors of the fleet front-end must reproduce them
// exactly; a change that moves them changes simulated behavior and must
// say so.
func TestShardedGoldenRuns(t *testing.T) {
	golden := []struct {
		scenario                                      string
		requests, completed, failed, failovers, hedge int
		hash, prom                                    uint64
	}{
		{"crash", 120, 120, 0, 34, 0, 0x78f42e7abdf7fe67, 0x9cd87cd906028918},
		{"overload", 40, 12, 28, 0, 12, 0x110b0cc0d5f7d0f1, 0xcf9ed9db531977b5},
	}
	scenarios := make(map[string]shardedScenario)
	for _, sc := range shardedScenarios() {
		scenarios[sc.name] = sc
	}
	for _, g := range golden {
		rec := obs.NewRecorder()
		st := runSharded(t, scenarios[g.scenario], Sharded, 0, false, rec)
		if st.Requests != g.requests || st.Completed != g.completed || st.Failed != g.failed ||
			st.Failovers != g.failovers || st.Hedges != g.hedge {
			t.Errorf("%s: requests/completed/failed/failovers/hedges = %d/%d/%d/%d/%d, want %d/%d/%d/%d/%d",
				g.scenario, st.Requests, st.Completed, st.Failed, st.Failovers, st.Hedges,
				g.requests, g.completed, g.failed, g.failovers, g.hedge)
		}
		if st.DecisionHash != g.hash {
			t.Errorf("%s: decision hash %#x, want %#x", g.scenario, st.DecisionHash, g.hash)
		}
		if got := promFingerprint(t, rec); got != g.prom {
			t.Errorf("%s: metrics fingerprint %#x, want %#x", g.scenario, got, g.prom)
		}
	}
}

// TestLLMGoldenRuns is TestShardedGoldenRuns for the LLM fleet.
func TestLLMGoldenRuns(t *testing.T) {
	golden := []struct {
		scenario                              string
		completed, tokens, retries, failovers int
		hash, prom                            uint64
	}{
		{"crash-mid-generation", 35, 4213, 0, 33, 0x70fe6deb39f775ae, 0xaea6395594a0369c},
		{"overload-control", 20, 883, 32, 0, 0xb65416aefb3f49ae, 0x25c515719e8c0a9a},
	}
	scenarios := make(map[string]llmScenario)
	for _, sc := range llmScenarios() {
		scenarios[sc.name] = sc
	}
	for _, g := range golden {
		rec := obs.NewRecorder()
		st := runLLM(t, scenarios[g.scenario], Sharded, 0, rec)
		if st.Completed != g.completed || st.TokensDelivered != g.tokens ||
			st.Retries != g.retries || st.Failovers != g.failovers {
			t.Errorf("%s: completed/tokens/retries/failovers = %d/%d/%d/%d, want %d/%d/%d/%d",
				g.scenario, st.Completed, st.TokensDelivered, st.Retries, st.Failovers,
				g.completed, g.tokens, g.retries, g.failovers)
		}
		if st.DecisionHash != g.hash {
			t.Errorf("%s: decision hash %#x, want %#x", g.scenario, st.DecisionHash, g.hash)
		}
		if got := promFingerprint(t, rec); got != g.prom {
			t.Errorf("%s: metrics fingerprint %#x, want %#x", g.scenario, got, g.prom)
		}
	}
}
