package adhocga

// BenchmarkEventFanout measures the streaming hub's producer hot path
// with live viewers attached: ns/op is the cost of one emit with N
// DropResync subscribers on the hub — the tentpole claim is that this
// stays flat in N, because live viewers never gate an append. The
// viewers' cursors are not read while the producer is timed, and a
// subscription runs no goroutine, so the measurement is single-threaded
// and stable on a one-core CI runner. bytes/sub is the marginal heap
// footprint of one attached subscriber and events/sub the post-run
// delivery (snapshot resync + ring tail per viewer).
// BENCH_stream.json in CI tracks the series; the benchgate holds the
// ns/op trajectory against ci/bench_baseline.txt at 10%.

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
)

func BenchmarkEventFanout(b *testing.B) {
	for _, subs := range []int{16, 256, 2048} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			j := testJobBench(HubConfig{})
			heapBefore := heapAlloc()
			viewers := make([]*Subscription, subs)
			for i := range viewers {
				viewers[i] = j.Subscribe(context.Background(), SubscribeOptions{
					Live: true, Policy: DropResync,
				})
			}
			perSub := float64(heapAlloc()-heapBefore) / float64(subs)

			// Grow the ring past its first size before the timed emits.
			for i := 0; i < 64; i++ {
				j.emit(Event{Kind: KindGeneration, Generation: &GenerationEvent{Gen: i}})
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j.emit(Event{Kind: KindGeneration, Generation: &GenerationEvent{Gen: i}})
			}
			b.StopTimer()

			j.finish(nil, nil)
			delivered := 0
			for _, sub := range viewers {
				for range follow(sub) {
					delivered++
				}
			}
			b.ReportMetric(perSub, "bytes/sub")
			b.ReportMetric(float64(delivered)/float64(subs), "events/sub")
		})
	}
}

// BenchmarkFrameFanout measures the per-subscriber cost of encoding one
// event for delivery, the unit of work every streaming endpoint (WS, SSE,
// NDJSON) pays once per event per subscriber. mode=marshal is the
// pre-cache behavior — each subscriber runs json.Marshal itself; mode=
// cached goes through the hub's shared frame cache, where the first
// subscriber marshals and the rest reuse the bytes. The delta between the
// two modes at the same subscriber count is the frame cache's win.
func BenchmarkFrameFanout(b *testing.B) {
	const ringEvents = 64
	for _, mode := range []string{"marshal", "cached"} {
		for _, subs := range []int{16, 256} {
			b.Run(fmt.Sprintf("mode=%s/subs=%d", mode, subs), func(b *testing.B) {
				j := testJobBench(HubConfig{RingSize: 2 * ringEvents})
				for i := 0; i < ringEvents; i++ {
					j.emit(Event{Kind: KindGeneration, Generation: &GenerationEvent{Gen: i}})
				}
				events := j.Snapshot()
				var sink []byte
				b.ReportAllocs()
				b.ResetTimer()
				// One iteration = one event fanned out to all subscribers.
				for i := 0; i < b.N; i++ {
					e := events[i%len(events)]
					for s := 0; s < subs; s++ {
						var err error
						if mode == "marshal" {
							sink, err = json.Marshal(e)
						} else {
							sink, err = j.Frame(e)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(subs)), "ns/frame")
				_ = sink
			})
		}
	}
}

// testJobBench mirrors hub_test.go's testJob for the benchmark file.
func testJobBench(cfg HubConfig) *Job {
	j := newJob("job-b", "bench", cfg, nil)
	j.cancel = func() {}
	return j
}

func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
