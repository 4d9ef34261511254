#include "dsm/envelope.hpp"

#include <utility>

#include "common/panic.hpp"

namespace causim::dsm {

serial::Bytes Envelope::encode(serial::ClockWidth cw, Sizes* sizes) const {
  serial::ByteWriter w(cw);
  encode_into(w, sizes);
  return w.take();
}

void Envelope::encode_into(serial::ByteWriter& w, Sizes* sizes) const {
  w.put_u8(static_cast<std::uint8_t>(kind));
  w.put_site(sender);
  w.put_var(var);
  switch (kind) {
    case MessageKind::kSM:
      w.put_write_id(write);
      w.put_u64(value.id);
      w.put_u32(value.payload_bytes);
      break;
    case MessageKind::kFM:
      w.put_u64(fetch_seq);
      w.put_u8(record ? 1 : 0);
      break;
    case MessageKind::kRM:
      w.put_u64(fetch_seq);
      w.put_u8(record ? 1 : 0);
      w.put_write_id(write);
      w.put_u64(value.id);
      w.put_u32(value.payload_bytes);
      break;
  }
  w.put_u32(static_cast<std::uint32_t>(meta.size()));
  const std::size_t header_bytes = w.size();  // everything so far minus nothing: meta not yet written
  w.put_bytes(meta.data(), meta.size());
  if (kind != MessageKind::kFM) w.put_opaque(value.payload_bytes);
  if (sizes != nullptr) {
    sizes->header = header_bytes;
    sizes->meta = meta.size();
    sizes->payload = kind == MessageKind::kFM ? 0 : value.payload_bytes;
  }
}

std::optional<Envelope> Envelope::try_decode(const serial::Bytes& bytes,
                                             serial::ClockWidth cw) {
  serial::ByteReader r(bytes, cw);
  Envelope e;
  const std::uint8_t kind_byte = r.get_u8();
  if (!r.ok() || kind_byte > static_cast<std::uint8_t>(MessageKind::kRM)) {
    return std::nullopt;
  }
  e.kind = static_cast<MessageKind>(kind_byte);
  e.sender = r.get_site();
  e.var = r.get_var();
  switch (e.kind) {
    case MessageKind::kSM:
      e.write = r.get_write_id();
      e.value.id = r.get_u64();
      e.value.payload_bytes = r.get_u32();
      break;
    case MessageKind::kFM:
      e.fetch_seq = r.get_u64();
      e.record = r.get_u8() != 0;
      break;
    case MessageKind::kRM:
      e.fetch_seq = r.get_u64();
      e.record = r.get_u8() != 0;
      e.write = r.get_write_id();
      e.value.id = r.get_u64();
      e.value.payload_bytes = r.get_u32();
      break;
  }
  const std::uint32_t meta_len = r.get_u32();
  if (!r.ok() || r.remaining() < meta_len) return std::nullopt;
  e.meta.assign(bytes.end() - static_cast<std::ptrdiff_t>(r.remaining()),
                bytes.end() - static_cast<std::ptrdiff_t>(r.remaining()) + meta_len);
  r.skip(meta_len);
  if (e.kind != MessageKind::kFM) {
    if (r.remaining() != e.value.payload_bytes) return std::nullopt;
  } else {
    if (!r.done()) return std::nullopt;
  }
  return e;
}

Envelope Envelope::decode(const serial::Bytes& bytes, serial::ClockWidth cw) {
  std::optional<Envelope> e = try_decode(bytes, cw);
  CAUSIM_CHECK(e.has_value(), "malformed envelope (" << bytes.size() << " bytes)");
  return *std::move(e);
}

}  // namespace causim::dsm
