package cluster

import (
	"context"
	"errors"
	"fmt"

	"github.com/fusionstore/fusion/internal/rpc"
)

// Client is how a coordinator reaches storage nodes. Implementations:
// simnet.Cluster (deterministic in-process simulation) and tcpnet.Client
// (real sockets).
type Client interface {
	// Call sends one request to the given node and waits for its response.
	// Transport-level failures (node down, connection refused) are returned
	// as errors; application-level failures arrive in Response.Err.
	Call(node int, req *rpc.Request) (*rpc.Response, error)
	// NumNodes returns the cluster size.
	NumNodes() int
}

// ErrNodeDown reports a call to an unreachable node.
var ErrNodeDown = errors.New("cluster: node down")

// CallChecked performs a Call under the default Policy (bounded retries with
// backoff for transient transport errors; ErrNodeDown fails fast) and
// converts application errors to Go errors.
func CallChecked(c Client, node int, req *rpc.Request) (*rpc.Response, error) {
	resp, _, err := CallRetryCtx(context.Background(), c, node, req, Policy{})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return resp, fmt.Errorf("cluster: node %d: %s", node, resp.Err)
	}
	return resp, nil
}
