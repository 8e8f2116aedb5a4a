package cluster

import (
	"encoding/binary"
	"errors"

	"github.com/fusionstore/fusion/internal/rpc"
)

// A metadata register replica (package metakv) is an ordinary block holding
// [4-byte CRC32C][8-byte version][value], the checksum covering version and
// value. A replica whose block rots at rest decodes as "no value" instead of
// possibly winning a quorum read with a garbage version, and the next quorum
// read repairs it.

// EncodeVersioned returns the block that stores (version, value) as a
// register replica.
func EncodeVersioned(version uint64, value []byte) []byte {
	out := make([]byte, 12+len(value))
	binary.LittleEndian.PutUint64(out[4:], version)
	copy(out[12:], value)
	binary.LittleEndian.PutUint32(out, Checksum(out[4:]))
	return out
}

// DecodeVersioned returns the version and value a register replica's block
// stores. The value aliases data.
func DecodeVersioned(data []byte) (uint64, []byte, error) {
	if len(data) < 12 {
		return 0, nil, errors.New("cluster: truncated register value")
	}
	if Checksum(data[4:]) != binary.LittleEndian.Uint32(data) {
		return 0, nil, errors.New("cluster: register value failed checksum")
	}
	return binary.LittleEndian.Uint64(data[4:]), data[12:], nil
}

// handleRaise is KindRaiseVersion: it raises the register replica
// req.BlockID to version req.Epoch, keeping its value, if req.Epoch is above
// the version the replica holds. A missing replica, and one whose block
// fails its checksum, holds version 0 and no value. regMu makes the compare
// and the write one step against every other raise on this node, so two
// proposals of one version cannot both be taken. The reply's Size is the
// version held before the request: below req.Epoch for a raise, at or above
// it for a refusal.
func (n *Node) handleRaise(req *rpc.Request) *rpc.Response {
	n.regMu.Lock()
	defer n.regMu.Unlock()
	var held uint64
	var value []byte
	data, err := n.Blocks.Get(req.BlockID, 0, 0)
	switch {
	case err == nil:
		if v, val, derr := DecodeVersioned(data); derr == nil {
			held, value = v, val
		}
	case !errors.Is(err, ErrNotFound):
		return errResp(err)
	}
	if req.Epoch <= held {
		return &rpc.Response{Size: held}
	}
	if err := n.Blocks.Put(req.BlockID, EncodeVersioned(req.Epoch, value)); err != nil {
		return errResp(err)
	}
	n.mu.Lock()
	n.record(req.BlockID, blockEntry{}, false)
	n.mu.Unlock()
	return &rpc.Response{Size: held}
}
