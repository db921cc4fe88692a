package flightrec

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzReader feeds arbitrary bytes to NewReader, Next and Replay. Its seed
// corpus, testdata/fuzz/FuzzReader/maintctl-record-seed7, is a real
// capture: `maintctl record -seed 7 -days 5 -accel 60 -level 4`. Decoding
// must never panic, and must allocate at most a constant multiple of the
// input plus a fixed slack: no count or length in the input may size an
// allocation the bytes behind it do not back.
func FuzzReader(f *testing.F) {
	f.Add(header(0))
	f.Add(corruptRecording(byte(KindEvent), 0, 0, 1, 't', 0, 0, 0, 1, 'k', 1, 1<<2|byte(FieldStr), 1, 'n', 0, 1, 'v'))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if rd, err := NewReader(bytes.NewReader(data)); err == nil {
			for {
				if _, err := rd.Next(); err != nil {
					break
				}
			}
		}
		_, _ = Replay(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// Each input byte may decode into a field or state entry of some
		// 50 bytes, held in a growing slice, and is decoded twice; the two
		// 64 KiB read buffers and the summary's tables are the slack.
		if n, limit := after.TotalAlloc-before.TotalAlloc, 256*uint64(len(data))+1<<20; n > limit {
			t.Fatalf("decoding %d bytes allocated %d, over the %d limit", len(data), n, limit)
		}
	})
}
