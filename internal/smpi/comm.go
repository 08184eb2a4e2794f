package smpi

// Comm is the world communicator (MPI_COMM_WORLD), the only one there is:
// Run creates it, and a rank's number in it is its world rank. The paper's
// SMPI lists MPI_Comm_split as unsupported; nothing here derives others.
type Comm struct {
	w *world
}

// size returns the number of ranks in the communicator.
func (c *Comm) size() int { return len(c.w.ranks) }
