#ifndef BLAZEIT_UTIL_STRING_UTIL_H_
#define BLAZEIT_UTIL_STRING_UTIL_H_

#include <string>
#include <vector>

namespace blazeit {

/// Lower-cases ASCII characters; FrameQL keywords are case-insensitive.
std::string ToLower(const std::string& s);

/// Upper-cases ASCII characters.
std::string ToUpper(const std::string& s);

/// Strips leading and trailing whitespace.
std::string Trim(const std::string& s);

/// Splits on a single-character delimiter; empty fields are preserved.
std::vector<std::string> Split(const std::string& s, char delim);

/// Joins strings with a separator.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Escapes a string for inclusion inside a JSON string literal: quotes and
/// backslashes get a backslash, newline, carriage return and tab their
/// short escapes, and every other control character a \u00XX escape.
std::string JsonEscape(const std::string& s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace blazeit

#endif  // BLAZEIT_UTIL_STRING_UTIL_H_
