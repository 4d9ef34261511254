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
  // The fixed-size header is sized once and stored field by field.
  const serial::ClockWidth cw = w.clock_width();
  const std::size_t write_id = 2 + static_cast<std::size_t>(cw);
  std::size_t fields = 1 + 2 + 4 + 4;  // kind, sender, var, meta length
  if (kind != MessageKind::kSM) fields += 8 + 1;             // fetch_seq, record
  if (kind != MessageKind::kFM) fields += write_id + 8 + 4;  // write, value id, payload
  std::uint8_t* p = w.extend(fields);
  p = serial::store_le(p, static_cast<std::uint8_t>(kind), 1);
  p = serial::store_le(p, sender, 2);
  p = serial::store_le(p, var, 4);
  if (kind != MessageKind::kSM) {
    p = serial::store_le(p, fetch_seq, 8);
    p = serial::store_le(p, record ? 1 : 0, 1);
  }
  if (kind != MessageKind::kFM) {
    p = serial::store_write_id(p, write, cw);
    p = serial::store_le(p, value.id, 8);
    p = serial::store_le(p, value.payload_bytes, 4);
  }
  serial::store_le(p, meta.size(), 4);
  const std::size_t header_bytes = w.size();  // the writer started empty
  w.put_bytes(meta.data(), meta.size());
  if (kind != MessageKind::kFM) w.put_opaque(value.payload_bytes);
  if (sizes != nullptr) {
    sizes->header = header_bytes;
    sizes->meta = meta.size();
    sizes->payload = kind == MessageKind::kFM ? 0 : value.payload_bytes;
  }
}

std::optional<EnvelopeView> Envelope::try_view(const serial::Bytes& bytes,
                                               serial::ClockWidth cw) {
  serial::ByteReader r(bytes, cw);
  EnvelopeView view;
  Envelope& e = view.env;
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
  view.meta = std::span(bytes).subspan(bytes.size() - r.remaining(), meta_len);
  r.skip(meta_len);
  if (e.kind != MessageKind::kFM) {
    if (r.remaining() != e.value.payload_bytes) return std::nullopt;
  } else {
    if (!r.done()) return std::nullopt;
  }
  return view;
}

EnvelopeView Envelope::view(const serial::Bytes& bytes, serial::ClockWidth cw) {
  std::optional<EnvelopeView> v = try_view(bytes, cw);
  CAUSIM_CHECK(v.has_value(), "malformed envelope (" << bytes.size() << " bytes)");
  return *v;
}

std::optional<Envelope> Envelope::try_decode(const serial::Bytes& bytes,
                                             serial::ClockWidth cw) {
  std::optional<EnvelopeView> v = try_view(bytes, cw);
  if (!v.has_value()) return std::nullopt;
  v->env.meta.assign(v->meta.begin(), v->meta.end());
  return std::move(v->env);
}

Envelope Envelope::decode(const serial::Bytes& bytes, serial::ClockWidth cw) {
  std::optional<Envelope> e = try_decode(bytes, cw);
  CAUSIM_CHECK(e.has_value(), "malformed envelope (" << bytes.size() << " bytes)");
  return *std::move(e);
}

}  // namespace causim::dsm
