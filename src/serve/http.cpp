#include "serve/http.hpp"

#include <algorithm>

#include "util/strings.hpp"
#include "util/url.hpp"

namespace ripki::serve {

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "OK";
  }
}

void serialize_head_into(std::string& out, const HttpResponse& response,
                         bool keep_alive) {
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += status_reason(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body_bytes().size());
  for (const auto& [name, value] : response.headers) {
    out += "\r\n";
    out += name;
    out += ": ";
    out += value;
  }
  out += keep_alive ? "\r\nConnection: keep-alive" : "\r\nConnection: close";
  out += "\r\n\r\n";
}

std::string serialize_head(const HttpResponse& response, bool keep_alive) {
  std::string out;
  out.reserve(128);
  serialize_head_into(out, response, keep_alive);
  return out;
}

std::string serialize_response(const HttpResponse& response, bool keep_alive) {
  std::string out = serialize_head(response, keep_alive);
  out += response.body_bytes();
  return out;
}

namespace {

/// The header fields request framing depends on, from one pass over the
/// head block: case-insensitive names, trimmed values.
struct FramingFields {
  std::optional<std::string_view> connection;  // the first occurrence
  std::optional<std::string_view> content_length;
  bool transfer_encoding = false;
};

/// nullopt on framing a front end might read differently, the
/// request-smuggling shape: whitespace between a field name and its colon
/// (RFC 9112 §5.1), or Content-Length lines that disagree (RFC 9112 §6.3).
/// Repeated identical lengths stay valid (RFC 9110 §8.6).
std::optional<FramingFields> scan_framing(std::string_view head) {
  FramingFields fields;
  std::size_t pos = 0;
  while (pos < head.size()) {
    auto eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    if (colon > 0 && (line[colon - 1] == ' ' || line[colon - 1] == '\t')) {
      return std::nullopt;
    }
    const std::string_view name = util::trim(line.substr(0, colon));
    const std::string_view value = util::trim(line.substr(colon + 1));
    if (util::iequals(name, "Content-Length")) {
      if (fields.content_length && *fields.content_length != value) {
        return std::nullopt;
      }
      fields.content_length = value;
    } else if (util::iequals(name, "Connection")) {
      if (!fields.connection) fields.connection = value;
    } else if (util::iequals(name, "Transfer-Encoding")) {
      fields.transfer_encoding = true;
    }
  }
  return fields;
}

}  // namespace

bool RequestParser::parse_head(std::string_view head) {
  // Request line: METHOD SP TARGET SP HTTP/x.y
  auto eol = head.find("\r\n");
  if (eol == std::string_view::npos) eol = head.size();
  const std::string_view line = head.substr(0, eol);
  const std::string_view headers =
      eol < head.size() ? head.substr(eol + 2) : std::string_view{};

  const auto sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || sp1 == 0) return false;
  const auto sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || sp2 == sp1 + 1) return false;

  HttpRequest request;
  request.method = std::string(line.substr(0, sp1));
  request.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  const std::string_view version = line.substr(sp2 + 1);
  if (version == "HTTP/1.1") {
    request.version_minor = 1;
  } else if (version == "HTTP/1.0") {
    request.version_minor = 0;
  } else {
    return false;
  }

  const auto fields = scan_framing(headers);
  if (!fields || fields->transfer_encoding) return false;

  const auto [path, query] = util::split_target(request.target);
  request.path = std::string(path);
  request.query = std::string(query);

  request.keep_alive = request.version_minor >= 1;
  if (const auto connection = fields->connection) {
    if (util::iequals(*connection, "close")) request.keep_alive = false;
    if (util::iequals(*connection, "keep-alive")) request.keep_alive = true;
  }

  body_remaining_ = 0;
  if (const auto length = fields->content_length) {
    std::uint64_t n = 0;
    if (!util::parse_u64(*length, n) || n > limits_.max_body_bytes) {
      return false;
    }
    body_remaining_ = static_cast<std::size_t>(n);
  }

  if (body_remaining_ > 0) {
    in_body_ = std::move(request);
  } else {
    ready_.push_back(std::move(request));
  }
  return true;
}

bool RequestParser::drain() {
  for (;;) {
    if (body_remaining_ > 0) {
      const std::size_t take = std::min(body_remaining_, buffer_.size());
      buffer_.erase(0, take);
      body_remaining_ -= take;
      if (body_remaining_ > 0) return true;  // need more bytes
      ready_.push_back(std::move(*in_body_));
      in_body_.reset();
    }
    // Tolerate empty lines before a request line (RFC 9112 §2.2). They
    // are skipped before the head is looked for, so a split between them
    // and the request changes nothing.
    std::size_t empty_lines = 0;
    while (buffer_.compare(empty_lines, 2, "\r\n") == 0) empty_lines += 2;
    buffer_.erase(0, empty_lines);
    const auto head_end = buffer_.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      // Bound the unterminated head. Up to three bytes of the terminator
      // may already be buffered, so only a longer buffer proves the head
      // oversized — the verdict a whole feed reaches.
      return buffer_.size() <= limits_.max_head_bytes + 3;
    }
    if (head_end > limits_.max_head_bytes) return false;
    const bool ok = parse_head(std::string_view(buffer_).substr(0, head_end));
    buffer_.erase(0, head_end + 4);
    if (!ok) return false;
  }
}

bool RequestParser::feed(std::string_view bytes) {
  if (failed_) return false;
  buffer_.append(bytes);
  if (!drain()) {
    failed_ = true;
    return false;
  }
  return true;
}

std::optional<HttpRequest> RequestParser::next() {
  if (ready_front_ >= ready_.size()) return std::nullopt;
  HttpRequest request = std::move(ready_[ready_front_]);
  ++ready_front_;
  if (ready_front_ == ready_.size()) {
    ready_.clear();
    ready_front_ = 0;
  }
  return request;
}

}  // namespace ripki::serve
