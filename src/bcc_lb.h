// bcc_lb — umbrella header.
//
// An executable laboratory for "Connectivity Lower Bounds in Broadcast
// Congested Clique" (Pai & Pemmaraju, PODC 2019): the BCC(b) model in its
// KT-0 and KT-1 versions, the port-preserving crossing and
// indistinguishability-graph machinery behind the KT-0 Ω(log n) bound, the
// set-partition lattice and 2-party reductions behind the KT-1 bounds, the
// information-theoretic ConnectedComponents bound, and the matching
// upper-bound algorithms. See DESIGN.md for the experiment index.
#pragma once

#include "bcc/algorithms/adjacency_exchange.h"   // IWYU pragma: export
#include "bcc/algorithms/boruvka.h"              // IWYU pragma: export
#include "bcc/algorithms/min_id_flood.h"         // IWYU pragma: export
#include "bcc/algorithms/sketch_connectivity.h"  // IWYU pragma: export
#include "bcc/algorithms/two_cycle_adversaries.h"  // IWYU pragma: export
#include "bcc/algorithms/boruvka_mst.h"          // IWYU pragma: export
#include "bcc/algorithms/disjointness.h"         // IWYU pragma: export
#include "bcc/algorithms/kt0_bootstrap.h"        // IWYU pragma: export
#include "bcc/batch_runner.h"                    // IWYU pragma: export
#include "bcc/checkpoint.h"                      // IWYU pragma: export
#include "bcc/faults.h"                          // IWYU pragma: export
#include "bcc/instance.h"                        // IWYU pragma: export
#include "bcc/instance_view.h"                   // IWYU pragma: export
#include "bcc/range_model.h"                     // IWYU pragma: export
#include "bcc/round_engine.h"                    // IWYU pragma: export
#include "bcc/soa_engine.h"                      // IWYU pragma: export
#include "bcc/transcript.h"                      // IWYU pragma: export
#include "comm/components_protocol.h"            // IWYU pragma: export
#include "comm/lower_bounds.h"                   // IWYU pragma: export
#include "comm/partition_protocols.h"            // IWYU pragma: export
#include "comm/protocol.h"                       // IWYU pragma: export
#include "comm/randomized_partition.h"           // IWYU pragma: export
#include "congest/bfs.h"                         // IWYU pragma: export
#include "congest/model.h"                       // IWYU pragma: export
#include "congest/triangle.h"                    // IWYU pragma: export
#include "common/bitset_reduce.h"                // IWYU pragma: export
#include "common/env.h"                          // IWYU pragma: export
#include "common/errors.h"                       // IWYU pragma: export
#include "common/feistel.h"                      // IWYU pragma: export
#include "core/campaign.h"                       // IWYU pragma: export
#include "core/decision_optimizer.h"             // IWYU pragma: export
#include "core/fault_tolerance.h"                // IWYU pragma: export
#include "core/info_engine.h"                    // IWYU pragma: export
#include "core/kt0_engine.h"                     // IWYU pragma: export
#include "core/kt1_engine.h"                     // IWYU pragma: export
#include "core/reduction.h"                      // IWYU pragma: export
#include "core/tightness.h"                      // IWYU pragma: export
#include "crossing/crossing.h"                   // IWYU pragma: export
#include "crossing/indistinguishability_graph.h"  // IWYU pragma: export
#include "crossing/instance_counts.h"            // IWYU pragma: export
#include "crossing/matching.h"                   // IWYU pragma: export
#include "crossing/ported_instance.h"            // IWYU pragma: export
#include "graph/arboricity.h"                    // IWYU pragma: export
#include "graph/components.h"                    // IWYU pragma: export
#include "graph/weighted.h"                      // IWYU pragma: export
#include "graph/cycle_structure.h"               // IWYU pragma: export
#include "graph/generators.h"                    // IWYU pragma: export
#include "info/entropy.h"                        // IWYU pragma: export
#include "pls/connectivity_pls.h"                // IWYU pragma: export
#include "pls/randomized_pls.h"                  // IWYU pragma: export
#include "pls/scheme.h"                          // IWYU pragma: export
#include "pls/transcript_pls.h"                  // IWYU pragma: export
#include "linalg/tiled_rank.h"                   // IWYU pragma: export
#include "partition/bell.h"                      // IWYU pragma: export
#include "partition/enumeration.h"               // IWYU pragma: export
#include "partition/moebius.h"                   // IWYU pragma: export
#include "partition/pair_partition.h"            // IWYU pragma: export
#include "partition/sampling.h"                  // IWYU pragma: export
#include "partition/set_partition.h"             // IWYU pragma: export
#include "partition/unrank.h"                    // IWYU pragma: export
#include "search/campaign.h"                     // IWYU pragma: export
#include "search/engine.h"                       // IWYU pragma: export
#include "search/fitness.h"                      // IWYU pragma: export
#include "search/strategy.h"                     // IWYU pragma: export
#include "serve/artifact_cache.h"                // IWYU pragma: export
#include "serve/backend_pool.h"                  // IWYU pragma: export
#include "serve/chaos.h"                         // IWYU pragma: export
#include "serve/client.h"                        // IWYU pragma: export
#include "serve/disk_store.h"                    // IWYU pragma: export
#include "serve/handlers.h"                      // IWYU pragma: export
#include "serve/loadgen.h"                       // IWYU pragma: export
#include "serve/router.h"                        // IWYU pragma: export
#include "serve/server.h"                        // IWYU pragma: export
#include "serve/wire.h"                          // IWYU pragma: export
