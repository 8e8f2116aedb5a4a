// Package metakv is a replicated, linearizable-per-key metadata register
// over the storage nodes, in the spirit of the ZooKeeper/etcd service the
// paper plans to move location maps into (§5 "Metadata Management") —
// implemented as an ABD-style majority-quorum register rather than a
// consensus log, which is exactly enough for single-writer metadata:
//
//   - Put: read the highest version from a majority, write (version+1,
//     value) to a majority. Overlapping majorities make the new version
//     visible to every subsequent read even if a minority of replicas
//     missed the write.
//   - Get: read from a majority, return the highest-versioned value, and
//     write it back to stale or empty replicas (read repair).
//
// Values are stored as blocks named "kv/<key>" through the ordinary node
// block interface, so the service needs no new node-side code and inherits
// each transport's failure semantics.
package metakv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

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

// The versioned encoding is [4-byte CRC32C][8-byte version][value], the
// checksum covering version and value. A replica whose stored register
// block rots at rest decodes as "no value" instead of possibly winning the
// read with a garbage version, and the next quorum read repairs it.
func encodeVersioned(version uint64, value []byte) []byte {
	out := make([]byte, 12+len(value))
	binary.LittleEndian.PutUint64(out[4:], version)
	copy(out[12:], value)
	binary.LittleEndian.PutUint32(out, cluster.Checksum(out[4:]))
	return out
}

func decodeVersioned(data []byte) (uint64, []byte, error) {
	if len(data) < 12 {
		return 0, nil, errors.New("metakv: truncated register value")
	}
	if cluster.Checksum(data[4:]) != binary.LittleEndian.Uint32(data) {
		return 0, nil, errors.New("metakv: register value failed checksum")
	}
	return binary.LittleEndian.Uint64(data[4:]), data[12:], nil
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
			if ver, val, err := decodeVersioned(resp.Data); err == nil {
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
	return rpc.Request{Kind: rpc.KindPutBlock, BlockID: keyBlock(key), Data: encodeVersioned(version, value)}
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
	if err := kv.quorumWrite(writeReq(key, next, value)); err != nil {
		return 0, err
	}
	return next, nil
}

// Incr bumps the key's version without changing its (typically empty)
// value and returns the new version — a crash-safe monotonic counter. The
// store uses one register per object as its epoch allocator. While one
// coordinator allocates at a time, two write attempts, even either side of
// a crash, never share an epoch, because every allocation lands on a
// majority before it is used. Two coordinators allocating at once can: Incr
// reads the maximum version and then writes max+1 blind, so both may read
// the same maximum and both own the next epoch (ROADMAP item 1 is the
// node-side compare that closes this).
func (kv *KV) Incr(key string) (uint64, error) {
	reads, err := kv.readPhase(key)
	if err != nil {
		return 0, err
	}
	var maxVer uint64
	var value []byte
	for _, r := range reads {
		if r.exists && r.version > maxVer {
			maxVer = r.version
			value = r.value
		}
	}
	next := maxVer + 1
	if err := kv.quorumWrite(writeReq(key, next, value)); err != nil {
		return 0, err
	}
	return next, nil
}

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
