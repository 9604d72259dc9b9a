// Typed SQL values and three-valued logic.
//
// A SqlValue models the dynamic value a cell, literal, or expression result
// holds at runtime: one of the four SQLite storage classes (NULL, INTEGER,
// REAL, TEXT). Affinity is the *static* column typing hint; how strictly it
// is enforced is a dialect decision made by the engine, not by this module.
#ifndef PQS_SRC_SQLVALUE_VALUE_H_
#define PQS_SRC_SQLVALUE_VALUE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace pqs {

enum class StorageClass : uint8_t { kNull, kInteger, kReal, kText };

// Column typing hint. kInteger/kReal columns coerce numeric-looking text on
// insert in the flexible dialects; kPostgresStrict rejects mismatches.
enum class Affinity { kInteger, kReal, kText };

// SQL three-valued logic outcome of a predicate.
enum class Bool3 { kFalse, kTrue, kNull };

// A 16-byte tagged value. The first 14 bytes hold either the 8-byte payload
// (i() for INTEGER, r() for REAL) or TEXT: up to kInlineText bytes inline
// and NUL-terminated, longer text in an owned heap buffer that a copy
// duplicates and a move steals, leaving the source NULL. Byte 14 is the
// inline text length or kHeapText, byte 15 the storage class. Each payload
// accessor is valid only under its own class (the text of NULL is empty);
// AsReal() is the class-checked numeric read.
class SqlValue {
 public:
  static constexpr size_t kInlineText = 13;

  SqlValue() = default;
  SqlValue(const SqlValue& other) { CopyFrom(other); }
  SqlValue(SqlValue&& other) noexcept { StealFrom(&other); }
  SqlValue& operator=(const SqlValue& other) {
    if (this != &other) {
      if (len_ != kHeapText && other.len_ != kHeapText) {
        CopyFrom(other);
      } else {
        *this = SqlValue(other);
      }
    }
    return *this;
  }
  SqlValue& operator=(SqlValue&& other) noexcept {
    if (this != &other) {
      FreeHeap();
      StealFrom(&other);
    }
    return *this;
  }
  ~SqlValue() { FreeHeap(); }

  static SqlValue Null() { return SqlValue(); }
  static SqlValue Int(int64_t v) {
    return OfPayload(StorageClass::kInteger, v);
  }
  static SqlValue Real(double v) { return OfPayload(StorageClass::kReal, v); }
  static SqlValue Text(std::string_view v) {
    SqlValue out;
    out.cls_ = StorageClass::kText;
    if (v.size() > kInlineText) {
      out.SetHeapText(v);
    } else {
      if (!v.empty()) std::memcpy(out.bytes_, v.data(), v.size());
      out.bytes_[v.size()] = '\0';
      out.len_ = static_cast<uint8_t>(v.size());
    }
    return out;
  }
  static SqlValue Bool(bool b) { return Int(b ? 1 : 0); }
  static SqlValue FromBool3(Bool3 b) {
    return b == Bool3::kNull ? Null() : Bool(b == Bool3::kTrue);
  }

  StorageClass cls() const { return cls_; }
  bool is_null() const { return cls_ == StorageClass::kNull; }
  bool is_numeric() const {
    return cls_ == StorageClass::kInteger || cls_ == StorageClass::kReal;
  }
  // Payload reads; each is valid only under its own storage class.
  int64_t i() const { return Payload<int64_t>(); }
  double r() const { return Payload<double>(); }
  std::string_view text() const {
    if (len_ != kHeapText) return std::string_view(bytes_, len_);
    return std::string_view(HeapChars(), HeapSize());
  }
  // NUL-terminated text; stops early at an embedded NUL, as any C string.
  const char* text_cstr() const {
    return len_ == kHeapText ? HeapChars() : bytes_;
  }
  // INTEGER and REAL as a double; 0.0 for NULL and TEXT.
  double AsReal() const {
    switch (cls_) {
      case StorageClass::kInteger:
        return static_cast<double>(i());
      case StorageClass::kReal:
        return r();
      default:
        return 0.0;
    }
  }

  // SQL literal spelling ('quoted' text, NULL keyword). Round-trips through
  // the renderer into real SQLite.
  std::string ToSqlLiteral() const;
  // Human-readable form for reports and logs (no quotes).
  std::string ToDisplay() const;

 private:
  // len_ value marking heap text: bytes_ then holds a pointer to a buffer
  // of the size_t length, the text and a NUL.
  static constexpr uint8_t kHeapText = 0xff;

  template <typename T>
  static SqlValue OfPayload(StorageClass cls, T v) {
    SqlValue out;
    out.cls_ = cls;
    std::memcpy(out.bytes_, &v, sizeof(v));
    return out;
  }
  template <typename T>
  T Payload() const {
    T v;
    std::memcpy(&v, bytes_, sizeof(v));
    return v;
  }
  char* HeapBuffer() const { return Payload<char*>(); }
  const char* HeapChars() const { return HeapBuffer() + sizeof(size_t); }
  size_t HeapSize() const {
    size_t n;
    std::memcpy(&n, HeapBuffer(), sizeof(n));
    return n;
  }

  void SetHeapText(std::string_view v);
  void CopyFrom(const SqlValue& other) {
    std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    len_ = other.len_;
    cls_ = other.cls_;
    if (len_ == kHeapText) SetHeapText(other.text());
  }
  void StealFrom(SqlValue* other) {
    std::memcpy(bytes_, other->bytes_, sizeof(bytes_));
    len_ = other->len_;
    cls_ = other->cls_;
    std::memset(other->bytes_, 0, sizeof(other->bytes_));
    other->len_ = 0;
    other->cls_ = StorageClass::kNull;
  }
  void FreeHeap() {
    if (len_ == kHeapText) delete[] HeapBuffer();
  }

  alignas(8) char bytes_[kInlineText + 1] = {};
  uint8_t len_ = 0;
  StorageClass cls_ = StorageClass::kNull;
};

static_assert(sizeof(SqlValue) == 16, "SqlValue is a 16-byte cell");

// Storage-identical equality used for result-set containment: NULLs match
// NULLs (we are matching a concrete fetched row, not evaluating SQL `=`),
// INTEGER and REAL compare numerically (engines are free to return 1 vs
// 1.0), TEXT compares byte-wise.
bool ValueEquals(const SqlValue& a, const SqlValue& b);

// Total order used for ORDER-less deterministic row comparison in tests and
// for the cross-storage-class comparison rules of the flexible dialects:
// NULL < numeric < TEXT, numerics by value, text byte-wise.
// Returns <0, 0, >0.
int ValueCompare(const SqlValue& a, const SqlValue& b);

// Best-effort text→number coercion. Returns true and sets *out when the
// whole NUL-terminated string parses as a number (used by flexible-typing
// inserts).
bool ParseFullNumeric(const char* s, SqlValue* out);

// MySQL-style prefix coercion: '12ab' → 12, 'x' → 0. Always succeeds.
double ParseNumericPrefix(const char* s);

Bool3 Not3(Bool3 v);
Bool3 And3(Bool3 a, Bool3 b);
Bool3 Or3(Bool3 a, Bool3 b);

const char* Bool3Name(Bool3 v);

}  // namespace pqs

#endif  // PQS_SRC_SQLVALUE_VALUE_H_
