#pragma once
/// \file dictionary_handle.hpp
/// \brief Versioned, hot-swappable holder of the active dictionary.
///
/// A production service must take a retrained dictionary live without
/// dropping the streams it is currently recognizing ("dictionary updates
/// while serving"). DictionaryHandle is the publication point that makes
/// that safe:
///
///  - The active dictionary lives inside an immutable Epoch: a const
///    Dictionary (whose flat rows are its probe table) and its
///    EFD-DICT-V1 bytes. New keys arrive as a successor epoch via
///    swap_if_changed(), never by mutating a published one. Readers pin
///    an epoch once per stream via acquire() — one shared_ptr copy —
///    and then touch only the pinned epoch for the stream's whole life:
///    the per-sample recognition hot path never revisits the handle.
///  - swap_if_changed() builds the successor Epoch (version + 1) and
///    publishes it with one pointer exchange. In-flight streams keep
///    recognizing against the epoch they pinned at open; streams opened
///    after the swap see the new one. No stream ever observes a
///    half-swapped dictionary.
///  - Reclamation is reference-counted: a superseded epoch is freed the
///    moment the last in-flight stream pinned to it finishes.
///
/// Thread-safety: one thread owns a handle (the service's owner) and
/// calls every method. A pinned epoch is const, so other threads may
/// read it — and drop their pin — while the owner publishes successors.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/dictionary.hpp"

namespace efd::core {

/// Publication point for the active dictionary epoch.
class DictionaryHandle {
 public:
  /// One published dictionary generation, immutable as a whole.
  struct Epoch {
    /// Construction is the publication point: the dictionary's rows are
    /// already its probe table (dictionary_index.hpp), so publishing
    /// writes the canonical EFD-DICT-V1 text from one sorted pass and
    /// moves the rows in. Every path that publishes an epoch ships rows
    /// and bytes together, and neither can change afterwards.
    Epoch(std::uint64_t version, Dictionary dictionary);

    /// Publication from EFD-DICT-V1 text (a wire swap, a snapshot's
    /// embedded dictionary, a dictionary file): one parse, which also
    /// certifies whether save() would write \p text back byte for byte
    /// (Dictionary::load(text, canonical)). Canonical text becomes
    /// `bytes` as it is, with no second write; any other text is
    /// written out as the other constructor does. Throws what
    /// Dictionary::load throws.
    Epoch(std::uint64_t version, std::string text);

    const std::uint64_t version;
    /// The dictionary's EFD-DICT-V1 text, exactly what save() writes:
    /// the already-active guard compares it and snapshot bases embed it,
    /// so neither serializes the dictionary again.
    const std::string bytes;
    const Dictionary dictionary;
    /// True when `bytes` is the text this epoch was built from, adopted
    /// without a write.
    const bool adopted_text;

   private:
    struct Parts {
      std::string bytes;
      Dictionary dictionary;
      bool adopted_text = false;
    };
    static Parts written(Dictionary dictionary);
    static Parts parsed(std::string text);
    Epoch(std::uint64_t version, Parts parts);
  };

  /// What swap_if_changed() did: the active version after the call, and
  /// whether the candidate was dropped as identical to the active epoch.
  struct SwapOutcome {
    std::uint64_t epoch = 0;     ///< active epoch after the call
    bool already_active = false; ///< candidate identical to the active one
  };

  /// The initial dictionary becomes epoch 1.
  explicit DictionaryHandle(Dictionary initial);
  /// A pre-built initial epoch (e.g. from a dictionary file's text),
  /// published with its own version.
  explicit DictionaryHandle(std::shared_ptr<Epoch> initial);

  DictionaryHandle(const DictionaryHandle&) = delete;
  DictionaryHandle& operator=(const DictionaryHandle&) = delete;

  /// Pins the active epoch: the returned pointer (and the dictionary
  /// inside it) stays valid until the caller drops it, across any number
  /// of swaps.
  std::shared_ptr<Epoch> acquire() const { return current_; }

  /// Version of the active epoch (starts at 1).
  std::uint64_t version() const noexcept { return current_->version; }

  /// Number of swap_if_changed()/reset() publications since construction.
  std::uint64_t swap_count() const noexcept { return swaps_; }

  /// Number of swap_if_changed() candidates dropped as identical to the
  /// active epoch.
  std::uint64_t noop_swap_count() const noexcept { return noop_swaps_; }

  /// Publishes \p next as the new active epoch (version + 1), unless its
  /// EFD-DICT-V1 bytes equal the active epoch's: such a candidate is
  /// dropped without burning a version. Byte equality is content
  /// identity: the text is deterministic and carries the config. The
  /// candidate epoch is built once, compared, and then published as is.
  /// In-flight pins keep their old epoch.
  SwapOutcome swap_if_changed(Dictionary next);

  /// The same for a candidate still in EFD-DICT-V1 text (a wire swap):
  /// text byte-equal to the active epoch's bytes is refused as a no-op
  /// before any parse; other text builds its epoch through
  /// Epoch(version, text) — one parse, and no write when the text is
  /// canonical (Dictionary::load throws on malformed input) — and is
  /// then compared and published as swap_if_changed(Dictionary) does.
  SwapOutcome swap_if_changed(std::string_view text);

  /// Restore path: installs a pre-built epoch (explicit version) with
  /// explicit swap and no-op swap counts — snapshot continuity across
  /// restarts. Taking the epoch ready-made lets the restorer pin streams
  /// to it BEFORE publication, so a failed restore never half-installs
  /// anything.
  void reset(std::shared_ptr<Epoch> epoch, std::uint64_t swap_count,
             std::uint64_t noop_swap_count = 0);

 private:
  /// Publishes \p candidate unless its bytes equal the active epoch's.
  SwapOutcome publish(std::shared_ptr<Epoch> candidate);

  std::shared_ptr<Epoch> current_;
  std::uint64_t swaps_ = 0;
  std::uint64_t noop_swaps_ = 0;
};

}  // namespace efd::core
