#include "encoding/xml.hpp"

#include <algorithm>
#include <cctype>

namespace ripki::encoding {

const std::string* XmlElement::attribute(std::string_view attr_name) const {
  for (const auto& [name_, value] : attributes) {
    if (name_ == attr_name) return &value;
  }
  return nullptr;
}

const XmlElement* XmlElement::child(std::string_view child_name) const {
  for (const auto& c : children) {
    if (c.name == child_name) return &c;
  }
  return nullptr;
}

std::vector<const XmlElement*> XmlElement::children_named(
    std::string_view child_name) const {
  std::vector<const XmlElement*> out;
  for (const auto& c : children) {
    if (c.name == child_name) out.push_back(&c);
  }
  return out;
}

std::string xml_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

namespace {

void encode_into(const XmlElement& element, std::string& out, int depth) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += '<';
  out += element.name;
  for (const auto& [name, value] : element.attributes) {
    out += ' ';
    out += name;
    out += "=\"";
    out += xml_escape(value);
    out += '"';
  }
  if (element.children.empty() && element.text.empty()) {
    out += "/>\n";
    return;
  }
  out += '>';
  if (!element.text.empty()) {
    out += xml_escape(element.text);
  }
  if (!element.children.empty()) {
    out += '\n';
    for (const auto& child : element.children) encode_into(child, out, depth + 1);
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
  }
  out += "</";
  out += element.name;
  out += ">\n";
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  util::Result<XmlElement> parse_document() {
    skip_whitespace();
    if (peek_starts_with("<?")) {
      const auto end = text_.find("?>", pos_);
      if (end == std::string_view::npos) return util::Err("xml: unterminated declaration");
      pos_ = end + 2;
    }
    skip_whitespace();
    RIPKI_TRY_ASSIGN(root, parse_element());
    skip_whitespace();
    if (pos_ != text_.size()) return util::Err("xml: trailing content after root");
    return root;
  }

 private:
  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }
  bool peek_starts_with(std::string_view s) const {
    return text_.substr(pos_, s.size()) == s;
  }
  static bool is_space(char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  }
  void skip_whitespace() {
    while (!at_end() && is_space(peek())) ++pos_;
  }

  static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '-' ||
           c == ':' || c == '.';
  }

  util::Result<std::string> parse_name() {
    const std::size_t start = pos_;
    while (!at_end() && is_name_char(peek())) ++pos_;
    if (pos_ == start) return util::Err("xml: expected a name");
    return std::string(text_.substr(start, pos_ - start));
  }

  util::Result<std::string> parse_entity() {
    // pos_ is at '&'.
    const auto end = text_.find(';', pos_);
    if (end == std::string_view::npos) return util::Err("xml: unterminated entity");
    const std::string_view entity = text_.substr(pos_ + 1, end - pos_ - 1);
    pos_ = end + 1;
    if (entity == "amp") return std::string("&");
    if (entity == "lt") return std::string("<");
    if (entity == "gt") return std::string(">");
    if (entity == "quot") return std::string("\"");
    if (entity == "apos") return std::string("'");
    return util::Err("xml: unknown entity &" + std::string(entity) + ";");
  }

  util::Result<std::string> parse_attribute_value() {
    if (at_end() || peek() != '"') return util::Err("xml: expected '\"'");
    ++pos_;
    std::string value;
    while (!at_end() && peek() != '"') {
      if (peek() == '&') {
        RIPKI_TRY_ASSIGN(entity, parse_entity());
        value += entity;
      } else {
        value.push_back(peek());
        ++pos_;
      }
    }
    if (at_end()) return util::Err("xml: unterminated attribute value");
    ++pos_;  // closing quote
    return value;
  }

  util::Result<XmlElement> parse_element() {
    if (at_end() || peek() != '<') return util::Err("xml: expected '<'");
    ++pos_;
    XmlElement element;
    RIPKI_TRY_ASSIGN(name, parse_name());
    element.name = std::move(name);

    // Attributes.
    for (;;) {
      skip_whitespace();
      if (at_end()) return util::Err("xml: unterminated start tag");
      if (peek() == '/' || peek() == '>') break;
      RIPKI_TRY_ASSIGN(attr_name, parse_name());
      skip_whitespace();
      if (at_end() || peek() != '=') return util::Err("xml: expected '='");
      ++pos_;
      skip_whitespace();
      RIPKI_TRY_ASSIGN(attr_value, parse_attribute_value());
      element.attributes.emplace_back(std::move(attr_name), std::move(attr_value));
    }

    if (peek() == '/') {
      ++pos_;
      if (at_end() || peek() != '>') return util::Err("xml: malformed self-close");
      ++pos_;
      return element;
    }
    ++pos_;  // '>'

    // Content: text and children until the end tag.
    for (;;) {
      if (at_end()) return util::Err("xml: unterminated element " + element.name);
      if (peek_starts_with("</")) {
        pos_ += 2;
        RIPKI_TRY_ASSIGN(end_name, parse_name());
        if (end_name != element.name)
          return util::Err("xml: mismatched end tag " + end_name);
        skip_whitespace();
        if (at_end() || peek() != '>') return util::Err("xml: malformed end tag");
        ++pos_;
        // Beside child elements only layout whitespace may appear. It is
        // dropped, so a parsed document re-encodes to itself.
        if (!element.children.empty()) {
          if (!std::ranges::all_of(element.text, is_space))
            return util::Err("xml: text beside child elements");
          element.text.clear();
        }
        return element;
      }
      if (peek() == '<') {
        if (peek_starts_with("<!") || peek_starts_with("<?"))
          return util::Err("xml: comments/PI/doctype unsupported");
        RIPKI_TRY_ASSIGN(child, parse_element());
        element.children.push_back(std::move(child));
        continue;
      }
      if (peek() == '&') {
        RIPKI_TRY_ASSIGN(entity, parse_entity());
        element.text += entity;
        continue;
      }
      element.text.push_back(peek());
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string xml_encode(const XmlElement& root) {
  std::string out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  encode_into(root, out, 0);
  return out;
}

util::Result<XmlElement> xml_parse(std::string_view text) {
  Parser parser(text);
  return parser.parse_document();
}

}  // namespace ripki::encoding
