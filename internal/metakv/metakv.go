// Package metakv is a replicated, linearizable-per-key metadata register
// over the storage nodes, in the spirit of the ZooKeeper/etcd service the
// paper plans to move location maps into (§5 "Metadata Management") —
// implemented as an ABD-style majority-quorum register rather than a
// consensus log, which is exactly enough for single-writer metadata:
//
//   - Put: read the highest version from a majority, write (version+1,
//     value) to a majority. Overlapping majorities make the new version
//     visible to every subsequent read even if a minority of replicas
//     missed the write. PutAt is the write alone, for a caller that has
//     just read the version it supersedes.
//   - Get: read from a majority, return the highest-versioned value, and
//     write it back to stale or empty replicas (read repair).
//   - Incr: propose a version to every replica as one conditional write
//     (rpc.KindRaiseVersion), which each node takes only above the version
//     it holds. A version a majority took is owned by exactly one caller.
//
// Values are stored as blocks named "kv/<key>" through the ordinary node
// block interface (cluster.EncodeVersioned); the conditional write is the
// one request kind the register adds to the node, and each transport's
// failure semantics carry over.
package metakv

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/rpc"
)

// ErrNoQuorum reports that fewer than a majority of replicas answered.
var ErrNoQuorum = errors.New("metakv: no quorum")

// ErrNotFound reports a key with no value at any reachable replica.
var ErrNotFound = errors.New("metakv: key not found")

// KV is a quorum register over a fixed replica set.
type KV struct {
	client   cluster.Client
	replicas []int
}

// New builds a KV over the given replica node ids. The set's size fixes the
// fault tolerance: floor((len-1)/2) replica failures.
func New(client cluster.Client, replicas []int) (*KV, error) {
	if len(replicas) == 0 {
		return nil, errors.New("metakv: empty replica set")
	}
	seen := map[int]bool{}
	for _, r := range replicas {
		if r < 0 || r >= client.NumNodes() {
			return nil, fmt.Errorf("metakv: replica %d out of range", r)
		}
		if seen[r] {
			return nil, fmt.Errorf("metakv: duplicate replica %d", r)
		}
		seen[r] = true
	}
	return &KV{client: client, replicas: append([]int(nil), replicas...)}, nil
}

// Majority returns the quorum size.
func (kv *KV) Majority() int { return len(kv.replicas)/2 + 1 }

func keyBlock(key string) string { return BlockID(key) }

// BlockID returns the node-side block name backing a key, for tooling and
// storage audits.
func BlockID(key string) string { return "kv/" + key }

// versioned is one replica's stored (version, value) pair. Version 0 with
// exists=false means the replica has no value.
type versioned struct {
	version uint64
	value   []byte
	exists  bool
	node    int
}

// send issues req to each of nodes at once and returns their responses
// index-aligned with nodes; nil marks a node that did not answer. Every phase
// of the register leaves through here, one goroutine per replica: a quorum
// phase waits on the slowest of its round trips, so they must all be in
// flight together (a CPU-sized worker pool would serialise them into rounds).
// Each call gets its own copy of the request, for a client that stamps what
// it sends. Retries, deadlines and accounting are the client's.
func (kv *KV) send(nodes []int, req rpc.Request) []*rpc.Response {
	resps := make([]*rpc.Response, len(nodes))
	var wg sync.WaitGroup
	wg.Add(len(nodes))
	for i, node := range nodes {
		req := req
		go func() {
			defer wg.Done()
			if resp, err := kv.client.Call(node, &req); err == nil {
				resps[i] = resp
			}
		}()
	}
	wg.Wait()
	return resps
}

// readPhase collects each reachable replica's current (version, value).
func (kv *KV) readPhase(key string) ([]versioned, error) {
	var out []versioned
	for i, resp := range kv.send(kv.replicas, rpc.Request{Kind: rpc.KindGetBlock, BlockID: keyBlock(key)}) {
		if resp == nil {
			continue // unreachable
		}
		// Reachable but no value, or one that rotted at rest: still counts
		// toward the quorum.
		v := versioned{node: kv.replicas[i]}
		if resp.Err == "" {
			if ver, val, err := cluster.DecodeVersioned(resp.Data); err == nil {
				v = versioned{version: ver, value: val, exists: true, node: v.node}
			}
		}
		out = append(out, v)
	}
	if len(out) < kv.Majority() {
		return nil, fmt.Errorf("%w: %d of %d replicas answered", ErrNoQuorum, len(out), len(kv.replicas))
	}
	return out, nil
}

// quorumWrite sends one mutation of the key's block — a versioned write or a
// delete — to every replica, requiring a majority of acks.
func (kv *KV) quorumWrite(req rpc.Request) error {
	acks := 0
	for _, resp := range kv.send(kv.replicas, req) {
		if resp != nil && resp.Err == "" {
			acks++
		}
	}
	if acks < kv.Majority() {
		return fmt.Errorf("%w: %d of %d replicas acked %v", ErrNoQuorum, acks, len(kv.replicas), req.Kind)
	}
	return nil
}

// writeReq is the request that stores (version, value) under key.
func writeReq(key string, version uint64, value []byte) rpc.Request {
	return rpc.Request{Kind: rpc.KindPutBlock, BlockID: keyBlock(key), Data: cluster.EncodeVersioned(version, value)}
}

// Get returns the key's value and version, repairing stale replicas.
func (kv *KV) Get(key string) ([]byte, uint64, error) {
	reads, err := kv.readPhase(key)
	if err != nil {
		return nil, 0, err
	}
	best := versioned{}
	for _, r := range reads {
		if r.exists && (!best.exists || r.version > best.version) {
			best = r
		}
	}
	if !best.exists {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	// Read repair: replicas below the winning version get the value back,
	// best effort.
	var stale []int
	for _, r := range reads {
		if !r.exists || r.version < best.version {
			stale = append(stale, r.node)
		}
	}
	if len(stale) > 0 {
		kv.send(stale, writeReq(key, best.version, best.value))
	}
	return best.value, best.version, nil
}

// Put stores value under key with a version above anything a majority has
// seen, and returns the new version.
func (kv *KV) Put(key string, value []byte) (uint64, error) {
	reads, err := kv.readPhase(key)
	if err != nil {
		return 0, err
	}
	var maxVer uint64
	for _, r := range reads {
		if r.exists && r.version > maxVer {
			maxVer = r.version
		}
	}
	next := maxVer + 1
	if err := kv.PutAt(key, next, value); err != nil {
		return 0, err
	}
	return next, nil
}

// PutAt stores (version, value) under key on a majority, unconditionally
// and without reading first: Put's write phase, for a caller whose own
// quorum read (Get) returned version-1, so it writes what Put would have
// computed from that read. Two writers that read the same version both
// write the next one, as two Puts can; a node-side compare for the publish
// is ROADMAP item 1(b).
func (kv *KV) PutAt(key string, version uint64, value []byte) error {
	return kv.quorumWrite(writeReq(key, version, value))
}

// Incr bumps the key's version and returns the new version — a crash-safe
// monotonic counter. It is IncrFrom with no hint.
func (kv *KV) Incr(key string) (uint64, error) { return kv.IncrFrom(key, 0) }

// IncrFrom bumps the key's version and returns the new version, starting
// from the caller's guess of the current one: it proposes hint+1 to every
// replica as one conditional write (rpc.KindRaiseVersion), and owns the
// proposal once a majority took it. A replica takes a proposal only above
// the version it holds, under its own lock, so two callers can never both be
// handed one version: their majorities share a replica, which refuses the
// second. A refusal carries the version the replica holds, and the next
// proposal is the highest refused version + 1. A hint that is right costs
// one round; a stale or zero hint costs two, the second at once. A round in
// which some replicas took the proposal but fewer than a majority did is a
// split — another caller is proposing too, or a replica lags — and backs off
// for a jittered, doubling pause before the next. IncrFrom fails with
// ErrNoQuorum when fewer than a majority answer a round.
//
// Each replica keeps the value it holds. A register whose replicas all hold
// its latest value keeps it through an Incr, but a replica that missed the
// latest Put carries its older value to the new version, where a Get may
// pick it: IncrFrom is for counters, and the store's epoch registers hold
// no value. Every allocation lands on a majority before it is used, so two
// write attempts, even either side of a crash, never share an epoch. A late
// proposal — one whose caller gave up while its frame was on the wire — is
// refused by a replica that has since taken a higher one, so it can never
// roll a replica back.
func (kv *KV) IncrFrom(key string, hint uint64) (uint64, error) {
	next := hint + 1
	pause := incrBackoff
	for {
		answered, acks := 0, 0
		var held uint64 // the highest version a refusing replica holds
		for _, resp := range kv.send(kv.replicas, rpc.Request{Kind: rpc.KindRaiseVersion, BlockID: keyBlock(key), Epoch: next}) {
			if resp == nil || resp.Err != "" {
				continue
			}
			answered++
			if resp.Size < next {
				acks++
			} else {
				held = max(held, resp.Size)
			}
		}
		switch {
		case acks >= kv.Majority():
			return next, nil
		case answered < kv.Majority():
			return 0, fmt.Errorf("%w: %d of %d replicas answered %v", ErrNoQuorum, answered, len(kv.replicas), rpc.KindRaiseVersion)
		case acks > 0:
			time.Sleep(rand.N(pause))
			pause = min(2*pause, maxIncrBackoff)
		}
		next = held + 1
	}
}

// incrBackoff and maxIncrBackoff bound IncrFrom's pause after a split round.
const (
	incrBackoff    = 200 * time.Microsecond
	maxIncrBackoff = 20 * time.Millisecond
)

// Head returns the highest version any reachable replica holds, or 0 when
// the key has never been written. Unlike Get it does not error on a missing
// key and performs no read repair — it is the orphan reconciler's view of
// "the latest allocated epoch".
func (kv *KV) Head(key string) (uint64, error) {
	reads, err := kv.readPhase(key)
	if err != nil {
		return 0, err
	}
	var maxVer uint64
	for _, r := range reads {
		if r.exists && r.version > maxVer {
			maxVer = r.version
		}
	}
	return maxVer, nil
}

// Delete removes the key from every reachable replica (best effort beyond
// the required majority).
func (kv *KV) Delete(key string) error {
	return kv.quorumWrite(rpc.Request{Kind: rpc.KindDeleteBlock, BlockID: keyBlock(key)})
}
