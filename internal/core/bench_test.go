package core

import (
	"runtime"
	"testing"
)

// BenchmarkNewSyntheticPipeline is the §5.4 set-up at the scale bench/'s
// audit_bench workload runs it: classifier training plus direction discovery
// over 2000 samples. retained-MB is what the finished pipeline keeps alive —
// the network and the classifier; the activation matrix shows in B/op only.
func BenchmarkNewSyntheticPipeline(b *testing.B) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	var sp *SyntheticPipeline
	for i := 0; i < b.N; i++ {
		var err error
		if sp, err = NewSyntheticPipeline(2000, 13); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/(1<<20), "retained-MB")
	runtime.KeepAlive(sp)
}
