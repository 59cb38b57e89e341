package anonnet

import "nymix/internal/nymerr"

// Registered error codes for the anonymizer layer. Every transport
// (tor, dissent, sweet, incognito, mixnet) classifies its trouble
// under one of these, so the layers above (core, fleet, slo) can
// bucket anonymizer failures without string matching.
var (
	// CodeNotReady: Fetch or Resolve was called before Start (or after
	// Stop).
	CodeNotReady = nymerr.Register("anonnet.not_ready",
		"transport used before Start or after Stop")
	// CodeNoExit: the deployment offers no usable exit, guard, relay,
	// or mix for the transport to build its path from.
	CodeNoExit = nymerr.Register("anonnet.no_exit",
		"deployment offers no usable exit or relay")
	// CodeResolve: the transport's resolution path cannot map the host
	// name to a network node.
	CodeResolve = nymerr.Register("anonnet.resolve",
		"transport cannot resolve the host name")
	// CodeBadRequest: the fetch request is malformed (empty site node).
	CodeBadRequest = nymerr.Register("anonnet.bad_request",
		"malformed fetch request")
	// CodeBadFrame: a fixed-size frame failed a size check. Only
	// dissent's DC-net reference core mints it: a message longer than
	// its slot, or round inputs of unequal length.
	CodeBadFrame = nymerr.Register("anonnet.bad_frame",
		"fixed-size frame failed a size check")
	// CodeUnknownTransport: no factory is registered under the
	// requested transport kind.
	CodeUnknownTransport = nymerr.Register("anonnet.unknown_transport",
		"no transport factory registered under that kind")
)

// Sentinel errors shared by transport implementations. Each is a
// typed nymerr root, so errors.Is against the sentinel and
// nymerr.HasCode against the code both match any error derived from
// one (including fmt.Errorf("%w") wraps).
var (
	ErrNotReady   = nymerr.New(CodeNotReady, "anonnet: anonymizer not started")
	ErrNoExit     = nymerr.New(CodeNoExit, "anonnet: no usable exit")
	ErrResolve    = nymerr.New(CodeResolve, "anonnet: cannot resolve host")
	ErrBadRequest = nymerr.New(CodeBadRequest, "anonnet: bad request")
	ErrBadFrame   = nymerr.New(CodeBadFrame, "anonnet: bad packet frame")
)
