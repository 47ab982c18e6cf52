package txlog

import _ "wren/internal/store/fsutil/crashfs"
