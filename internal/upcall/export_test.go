package upcall

import "tse/internal/bitvec"

// PlantHeaderHash replaces the pending table's header fingerprint with h,
// so a test can file distinct headers under one key. Call it before the
// first Submit.
func (u *Subsystem) PlantHeaderHash(h func(bitvec.Vec) uint64) { u.headerHash = h }
