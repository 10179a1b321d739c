package bench

import "testing"

// Thin wrappers so the shared bodies run under `go test -bench` with
// the canonical names the committed BENCH_*.json baseline uses.

func BenchmarkEngineScheduleRun(b *testing.B) { Short = testing.Short(); EngineScheduleRun(b) }
func BenchmarkEngineTimerReset(b *testing.B)  { Short = testing.Short(); EngineTimerReset(b) }
func BenchmarkEngineTieHeavy(b *testing.B)    { Short = testing.Short(); EngineTieHeavy(b) }
func BenchmarkFabricHop(b *testing.B)         { Short = testing.Short(); FabricHop(b) }
func BenchmarkPrestoGROFlush(b *testing.B)    { Short = testing.Short(); PrestoGROFlush(b) }
func BenchmarkPrestoGROReorderWindow(b *testing.B) {
	Short = testing.Short()
	PrestoGROReorderWindow(b)
}
func BenchmarkPrestoGROIdleFlows(b *testing.B) { Short = testing.Short(); PrestoGROIdleFlows(b) }
func BenchmarkTelemetryEmit(b *testing.B)      { Short = testing.Short(); TelemetryEmit(b) }
func BenchmarkClusterEndToEnd(b *testing.B)    { Short = testing.Short(); ClusterEndToEnd(b) }
func BenchmarkShardedClusterEndToEnd(b *testing.B) {
	Short = testing.Short()
	ShardedClusterEndToEnd(b)
}
