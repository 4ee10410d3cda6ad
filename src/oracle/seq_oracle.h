// A brute-force reference for SEQ and EXCEPTION_SEQ (paper §3.1),
// written from the paper's text and DESIGN.md §5, not from the matcher.
//
// The SEQ oracle keeps the joint tuple history and, at every trigger,
// enumerates every in-order combination over it. It then applies the
// pairing mode as a selection over those candidates. It recomputes from
// the full history each time: it has no purging, no keying and no
// incremental matching state. The EXCEPTION_SEQ oracle walks the
// history once with the §3.1.3 completion levels. Where the paper is
// silent, the oracle encodes the matcher's choice under the name DESIGN
// §5 gives it ("Named semantic decisions"); each one is marked
// `Decision "<name>"` in seq_oracle.cc.
//
// It is slow by design (a trigger costs the product of the history
// sizes), so it serves tests, and later tools that explain a match.

#ifndef ESLEV_ORACLE_SEQ_ORACLE_H_
#define ESLEV_ORACLE_SEQ_ORACLE_H_

#include <cstddef>
#include <vector>

#include "cep/seq_config.h"
#include "common/result.h"
#include "types/tuple.h"

namespace eslev {

/// \brief One input of a sequence operator, in arrival order: a tuple
/// on a port (port == position index) or a heartbeat.
struct SeqInput {
  static constexpr size_t kHeartbeat = static_cast<size_t>(-1);

  size_t port = kHeartbeat;
  Tuple tuple;        // the arrival; unset for a heartbeat
  Timestamp now = 0;  // the heartbeat's time; unset for an arrival

  static SeqInput Arrival(size_t port, Tuple tuple);
  static SeqInput Heartbeat(Timestamp now);
  bool is_heartbeat() const { return port == kHeartbeat; }
};

/// \brief The rows a SEQ operator built from `config` must emit for
/// `inputs`, in emission order.
Result<std::vector<Tuple>> RunSeqOracle(const SeqOperatorConfig& config,
                                        const std::vector<SeqInput>& inputs);

/// \brief The terminal events an EXCEPTION_SEQ / CLEVEL_SEQ operator
/// built from `config` must emit for `inputs`, in emission order.
Result<std::vector<Tuple>> RunExceptionSeqOracle(
    const ExceptionSeqConfig& config, const std::vector<SeqInput>& inputs);

}  // namespace eslev

#endif  // ESLEV_ORACLE_SEQ_ORACLE_H_
