#pragma once
/// \file trainer.hpp
/// \brief The learning phase: builds a Dictionary from labeled executions.

#include "core/dictionary.hpp"
#include "telemetry/dataset.hpp"

namespace efd::util {
class ThreadPool;
}

namespace efd::core {

/// Builds a dictionary from the given executions of \p dataset.
///
/// For every training execution, fingerprints are constructed under
/// \p config and inserted with the execution's full label ("ft_X") as the
/// value — the paper's Figure 1 step (1).
///
/// With a \p pool, fingerprints of every record are built in parallel
/// across it (the expensive part); the inserts then run in record order
/// on the calling thread, so the result is byte-identical to sequential
/// training by construction. Must then be called from outside the pool's
/// own workers (it blocks on the pool).
///
/// \param indices records to learn from; empty means all records.
Dictionary train_dictionary(const telemetry::Dataset& dataset,
                            const FingerprintConfig& config,
                            const std::vector<std::size_t>& indices = {},
                            util::ThreadPool* pool = nullptr);

}  // namespace efd::core
