// Package vault is NymVault: a content-addressed, deduplicating,
// encrypted checkpoint store for quasi-persistent nym state (paper
// section 3.5). The monolithic path (internal/nymstate) re-seals and
// re-uploads a nym's entire state every save cycle; the vault instead
// splits the state's disk layers into content-defined chunks, stores
// each chunk under a keyed SHA-256 content address with its own
// AES-GCM seal, and commits the chunk list to a small sealed manifest
// carrying a Merkle root (the internal/merkle idiom of section 3.4).
// A save cycle then uploads only chunks the provider does not already
// hold — O(changed chunks) wire cost instead of O(full state) — and a
// restore authenticates every fetched chunk (the seal is bound to the
// chunk's keyed address, which the sealed manifest vouches for) before
// rebuilding byte-identical images.
//
// Addresses are HMAC-SHA256 under a key derived from the nym password,
// not plain digests, so a provider cannot run confirmation attacks
// against guessed content; chunk seals are convergent (nonce derived
// from the address) so re-sealing unchanged content yields identical
// blobs, which is what makes presence checks equal dedup. The manifest
// is the only mutable object. Every chunk is replicated to every
// provider of the destination, so any single surviving provider can
// restore the nym, and unreferenced chunks are reclaimed by garbage
// collection that never touches chunks the latest manifest still
// names.
package vault
