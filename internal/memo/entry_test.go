package memo

import "wfserverless/internal/journal"

// decodeEntry decodes an entry record into a manifest of its own.
func decodeEntry(rec journal.Record) (fp [32]byte, outs []Output, ok bool) {
	fp, _, ok = walkEntry(rec, func(name []byte, size, hash uint64) {
		outs = append(outs, Output{Name: string(name), Size: int64(size), Hash: hash})
	})
	return fp, outs, ok
}
