package cluster

import (
	"fmt"

	"repro/internal/router"
)

// qosServerCount returns the current QoS-layer width.
func (c *Cluster) qosServerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.QoS)
}

// totalDefaultReplies sums router-fabricated default replies across the
// router layer — the membership acceptance metric: a clean scale event
// fabricates none.
func (c *Cluster) totalDefaultReplies() int64 {
	c.mu.Lock()
	routers := append([]*router.Router(nil), c.Routers...)
	c.mu.Unlock()
	var n int64
	for _, r := range routers {
		n += r.Stats().DefaultReplies
	}
	return n
}

// failDB kills the database master and promotes the standby (DBHA only):
// the DNS health check flips the record, the standby leaves read-only mode,
// and subsequent store traffic lands on it.
func (c *Cluster) failDB() error {
	if c.DBStandbyServer == nil {
		return fmt.Errorf("cluster: DBHA not enabled")
	}
	c.DBServer.Close()
	c.dbReplica.Promote()
	c.DBStandbyServer.SetReadOnly(false)
	if _, err := c.DNS.CheckNow(DBName); err != nil {
		return err
	}
	return nil
}
