package faultnet

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ChaosConfig parameterizes a random fault schedule.
type ChaosConfig struct {
	// MaxDown bounds how many nodes the schedule crashes simultaneously.
	// Keep it at or below the code's n−k tolerance for a soak that must
	// stay error-free.
	MaxDown int
	// ToggleProb is the per-step probability of crashing a random up node
	// (when fewer than MaxDown are down) or reviving a random down node.
	ToggleProb float64
	// Step is the interval between schedule mutations (default 20ms).
	Step time.Duration
}

// Chaos drives an Injector's down set from a seeded random walk in a
// background controller goroutine. Fault rules (transient errors, slow
// responses) are installed by the caller on the injector directly; Chaos
// only crashes and revives nodes, so the whole schedule is reproducible
// from (injector seed, chaos seed, config).
type Chaos struct {
	inj  *Injector
	cfg  ChaosConfig
	seed int64

	stop chan struct{}
	done chan struct{}

	mu    sync.Mutex
	stats ChaosStats
}

// ChaosStats summarizes a crash-walk schedule after (or during) a run —
// the soak harness reports them next to availability so "99.4% under 17
// crashes, at most 2 down at once" is one line.
type ChaosStats struct {
	// Crashes and Revives count schedule mutations applied.
	Crashes uint64 `json:"crashes"`
	Revives uint64 `json:"revives"`
	// MaxSimultaneousDown is the largest down set the walk reached.
	MaxSimultaneousDown int `json:"max_simultaneous_down"`
}

// StartChaos begins mutating the injector's down set until Stop.
func StartChaos(inj *Injector, seed int64, cfg ChaosConfig) *Chaos {
	if cfg.Step <= 0 {
		cfg.Step = 20 * time.Millisecond
	}
	if cfg.ToggleProb <= 0 {
		cfg.ToggleProb = 0.5
	}
	if cfg.MaxDown <= 0 {
		cfg.MaxDown = 1
	}
	if max := inj.NumNodes() - 1; cfg.MaxDown > max {
		cfg.MaxDown = max
	}
	c := &Chaos{inj: inj, cfg: cfg, seed: seed, stop: make(chan struct{}), done: make(chan struct{})}
	go c.run()
	return c
}

// String identifies the schedule for failure logs.
func (c *Chaos) String() string {
	return fmt.Sprintf("chaos{seed=%d injectorSeed=%d maxDown=%d step=%v}",
		c.seed, c.inj.Seed(), c.cfg.MaxDown, c.cfg.Step)
}

func (c *Chaos) run() {
	defer close(c.done)
	rng := rand.New(rand.NewSource(c.seed))
	ticker := time.NewTicker(c.cfg.Step)
	defer ticker.Stop()
	var downed []int
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		if rng.Float64() >= c.cfg.ToggleProb {
			continue
		}
		// Crash when there is headroom and a coin flip says so, else revive.
		crash := len(downed) == 0 || (len(downed) < c.cfg.MaxDown && rng.Intn(2) == 0)
		if crash {
			n := c.inj.NumNodes()
			node := rng.Intn(n)
			for isDowned(downed, node) {
				node = rng.Intn(n)
			}
			c.inj.SetDown(node, true)
			downed = append(downed, node)
			c.mu.Lock()
			c.stats.Crashes++
			if len(downed) > c.stats.MaxSimultaneousDown {
				c.stats.MaxSimultaneousDown = len(downed)
			}
			c.mu.Unlock()
		} else {
			i := rng.Intn(len(downed))
			c.inj.SetDown(downed[i], false)
			downed = append(downed[:i], downed[i+1:]...)
			c.mu.Lock()
			c.stats.Revives++
			c.mu.Unlock()
		}
	}
}

func isDowned(downed []int, node int) bool {
	for _, d := range downed {
		if d == node {
			return true
		}
	}
	return false
}

// Stats snapshots the walk's schedule counters.
func (c *Chaos) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Stop halts the controller and revives every node it downed.
func (c *Chaos) Stop() {
	close(c.stop)
	<-c.done
	c.inj.ReviveAll()
}
