package mpi

// UseReferenceP2P switches w onto the reference P2P oracle
// (oracle_test.go) for the external test package. Call it before any send
// or receive.
func UseReferenceP2P(w *World) { useReferenceP2P(w) }
