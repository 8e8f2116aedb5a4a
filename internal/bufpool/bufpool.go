// Package bufpool is a sized buffer arena for the read path: sync.Pools per
// power-of-two size class, so steady-state Get/Query traffic recycles block
// buffers, decode scratch and RPC frame buffers instead of allocating per
// request.
//
// Ownership discipline (see DESIGN.md §11): a buffer obtained from Get is
// owned by the caller until it either crosses an API boundary that the
// caller does not control (returned to user code, retained by a cache) — in
// which case it must NOT be put back — or until the caller is provably the
// last reader, in which case it should be returned with Put. Put is always
// optional: a buffer that never comes back is garbage-collected like any
// other allocation. Tests enable poisoning (SetPoison) so any read of a
// buffer after its Put shows up as corrupted 0xDB bytes instead of silent
// stale data.
package bufpool

import (
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Size-class bounds: buffers below minClassBits are cheaper to allocate
// than to rent (and pool bookkeeping would dominate); buffers above
// maxClassBits (16 MiB) are rare one-offs not worth retaining.
const (
	minClassBits = 9  // 512 B
	maxClassBits = 24 // 16 MiB
	numClasses   = maxClassBits - minClassBits + 1
)

var (
	classes [numClasses]sync.Pool

	// poison, when enabled, fills buffers with 0xDB on Put — the
	// use-after-Put tripwire the -race alias tests run under.
	poison atomic.Bool

	gets, puts, misses atomic.Uint64
)

// poisonByte is the fill value poisoned buffers carry; chosen to be neither
// zero nor valid ASCII so corrupted payloads are obvious in hex dumps.
const poisonByte = 0xDB

// classFor returns the size-class index for a buffer of capacity n, or -1
// when n is outside the pooled range.
func classFor(n int) int {
	if n <= 0 || n > 1<<maxClassBits {
		return -1
	}
	bitLen := bits.Len(uint(n - 1)) // ceil(log2 n)
	if bitLen < minClassBits {
		bitLen = minClassBits
	}
	return bitLen - minClassBits
}

// Get returns a zero-length buffer with capacity ≥ n, from the pool when a
// same-class buffer is available. Callers append or reslice as needed; the
// bytes beyond len are unspecified (possibly poisoned).
func Get(n int) []byte {
	gets.Add(1)
	cls := classFor(n)
	if cls < 0 {
		misses.Add(1)
		return make([]byte, 0, n)
	}
	if v := classes[cls].Get(); v != nil {
		return v.([]byte)[:0]
	}
	misses.Add(1)
	return make([]byte, 0, 1<<(cls+minClassBits))
}

// Cap returns the capacity Get(n) hands out: n rounded up to its size
// class, or n itself outside the pooled range.
func Cap(n int) int {
	if cls := classFor(n); cls >= 0 {
		return 1 << (cls + minClassBits)
	}
	return max(n, 0)
}

// GetLen is Get resliced to length n (contents unspecified).
func GetLen(n int) []byte {
	return Get(n)[:n]
}

// ReadAppend reads n bytes from r onto the end of b — a buffer from Get, or
// nil — and returns the extended buffer. Room is rented as the bytes arrive:
// at most ahead bytes past those already read at first, then doubling, so a
// length a peer declares but never sends costs little. An outgrown buffer
// goes back to the pool, and on a read error so does the extended one.
func ReadAppend(r io.Reader, b []byte, n, ahead int) ([]byte, error) {
	end := len(b) + n
	for len(b) < end {
		if len(b) == cap(b) {
			next := append(Get(min(end, max(2*len(b), len(b)+max(ahead, 1)))), b...)
			Put(b)
			b = next
		}
		m := min(end, cap(b))
		if _, err := io.ReadFull(r, b[len(b):m]); err != nil {
			Put(b)
			return nil, err
		}
		b = b[:m]
	}
	return b, nil
}

// Put returns a buffer to its size-class pool. Only buffers whose capacity
// is an exact pooled class size are retained (anything Get handed out in
// the pooled range is; foreign buffers of odd capacities, and power-of-two
// buffers above the largest class, are dropped so a later Get never returns
// less capacity than its class promises). The caller must not touch the
// buffer afterwards.
func Put(b []byte) {
	c := cap(b)
	if c < 1<<minClassBits || c > 1<<maxClassBits || c&(c-1) != 0 {
		return
	}
	puts.Add(1)
	if poison.Load() {
		b = b[:c]
		for i := range b {
			b[i] = poisonByte
		}
	}
	cls := bits.Len(uint(c)) - 1 - minClassBits
	classes[cls].Put(b[:0:c])
}

// SetPoison toggles poison-on-Put (test builds only: the fill pass costs a
// full buffer write). It returns the previous setting.
func SetPoison(on bool) bool { return poison.Swap(on) }

// Poisoned reports whether b (a buffer whose content should be live) has
// been overwritten by a poison fill — the alias-detection check.
func Poisoned(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	for _, v := range b {
		if v != poisonByte {
			return false
		}
	}
	return true
}

// Stats reports cumulative pool traffic: rentals, returns, and rentals
// that had to allocate (class miss or out-of-range size).
func Stats() (getCount, putCount, missCount uint64) {
	return gets.Load(), puts.Load(), misses.Load()
}
