// Envelope — the wire representation of SM / FM / RM messages (Table I).
//
// The envelope carries the fields the paper lists per message kind plus the
// implementation fields a real messaging layer needs (sender id, fetch
// sequence token, length prefixes). Byte accounting is split exactly as the
// stats module expects:
//   header  = everything that is not protocol meta-data or payload,
//   meta    = the protocol's piggybacked bytes (Write clock / L_w / LOG /
//             LastWriteOn⟨h⟩),
//   payload = the value's modelled raw-data bytes (zeros on the wire).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/ids.hpp"
#include "common/message_kind.hpp"
#include "common/value.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace causim::dsm {

struct EnvelopeView;

struct Envelope {
  MessageKind kind = MessageKind::kSM;
  SiteId sender = kInvalidSite;
  VarId var = kInvalidVar;

  // SM and RM: the value and the id of the write that produced it.
  Value value;
  WriteId write;

  // FM and RM: token matching a fetch to its reply; `record` tells the
  // responder whether the fetch belongs to the measured (post-warm-up)
  // window so the RM inherits the sender's recording decision.
  std::uint64_t fetch_seq = 0;
  bool record = true;

  // Protocol meta-data (already serialized by the protocol).
  serial::Bytes meta;

  struct Sizes {
    std::size_t header = 0;
    std::size_t meta = 0;
    std::size_t payload = 0;
    std::size_t total() const { return header + meta + payload; }
  };

  /// Serializes; fills `sizes` with the exact byte split.
  serial::Bytes encode(serial::ClockWidth cw, Sizes* sizes = nullptr) const;

  /// Serializes into a caller-supplied writer — the pooled hot path: pass a
  /// writer seeded with a serial::BufferPool buffer and take() the frame
  /// without a fresh allocation. Precondition: `w` is freshly constructed
  /// (both ByteWriter constructors start empty) with the envelope's clock
  /// width.
  void encode_into(serial::ByteWriter& w, Sizes* sizes = nullptr) const;

  /// Decodes untrusted bytes in place (see EnvelopeView): any truncation,
  /// length mismatch, or unknown kind byte yields nullopt instead of a
  /// panic.
  static std::optional<EnvelopeView> try_view(const serial::Bytes& bytes,
                                              serial::ClockWidth cw);

  /// Strict variant for frames the simulation itself produced (the
  /// runtime's receive path): panics on malformed input.
  static EnvelopeView view(const serial::Bytes& bytes, serial::ClockWidth cw);

  /// try_view plus a copy of the meta-data into `meta` (the fuzz round-trip
  /// in tests/test_envelope.cpp flips and truncates at will).
  static std::optional<Envelope> try_decode(const serial::Bytes& bytes,
                                            serial::ClockWidth cw);

  /// Strict variant of try_decode: panics on malformed input.
  static Envelope decode(const serial::Bytes& bytes, serial::ClockWidth cw);
};

/// A frame decoded in place: `env` holds every field but `meta` (left
/// empty), and `meta` views the meta-data bytes inside the frame — valid
/// while the frame is — so a receiver decodes them without a copy.
struct EnvelopeView {
  Envelope env;
  std::span<const std::uint8_t> meta;
};

}  // namespace causim::dsm
