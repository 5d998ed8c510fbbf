package mpc

// ForgetFaultCounters drops the per-machine fault counter handles
// SetCheckpointer keeps, so every machine's next registration resolves them
// from the registry again — what every registration did before the handles
// were kept.
func (c *Cluster) ForgetFaultCounters() { clear(c.ft.counters) }
