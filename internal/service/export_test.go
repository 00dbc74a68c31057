package service

// GossipQueue is the per-peer gossip queue bound, for the external tests.
const GossipQueue = gossipQueue
